"""Tests for the solve service and the cross-process factorization store.

Covers the serving seam end to end: artifact roundtrips and every
corruption/failure path of :class:`FileFactorizationStore`, the cache
fall-through (fresh cache + warm store solves without factorizing), recycled
reference adoption, request coalescing bit-identity, the engine-shaped
service front-end through :class:`Simulation`, the end-to-end result cache,
and the pool-initializer plumbing the generator uses to share a store across
worker processes.
"""

from __future__ import annotations

import concurrent.futures
import os
import pathlib
import threading
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro import constants
from repro.fdfd import Grid, Port, Simulation
from repro.fdfd.engine import (
    CountingEngine,
    DirectEngine,
    FactorizationCache,
    RecycledEngine,
    assemble_system_matrix,
    available_engines,
    eps_fingerprint,
    factor_lu,
    make_engine,
    resolve_engine,
)
from repro.fdfd.simulation import clear_result_cache, result_cache_stats
from repro.service import (
    FileFactorizationStore,
    ServiceEngine,
    SolveService,
    SolveTimeoutError,
    default_store_budget_bytes,
)
from repro.service.cache_store import StoredFactorization
from repro.utils.executor import ExecutorConfig, execute_tasks

OMEGA = constants.wavelength_to_omega(1.55)


def _tiny_waveguide(dl=0.1, domain=2.4, width=0.48):
    npml = 8
    n = int(domain / dl) + 2 * npml
    grid = Grid(nx=n, ny=n, dl=dl, npml=npml)
    eps = np.full(grid.shape, constants.EPS_SIO2)
    y = grid.y_coords()
    eps[:, np.abs(y - grid.size_y / 2) <= width / 2] = constants.EPS_SI
    margin = (npml + 3) * dl
    ports = [
        Port("in", "x", position=margin, center=grid.size_y / 2, span=3 * width, direction=+1),
        Port("out", "x", position=grid.size_x - margin, center=grid.size_y / 2, span=3 * width, direction=+1),
    ]
    return grid, eps, ports


def _rhs_stack(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    rhs = np.zeros((count, *grid.shape), dtype=complex)
    for index in range(count):
        ix = rng.integers(grid.npml + 2, grid.nx - grid.npml - 2)
        iy = rng.integers(grid.npml + 2, grid.ny - grid.npml - 2)
        rhs[index, ix, iy] = 1j * OMEGA
    return rhs


def _norm_close(a, b, rtol=1e-4):
    scale = max(float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) <= rtol * scale


@pytest.fixture()
def tiny_problem():
    grid, eps, _ = _tiny_waveguide()
    return grid, eps, eps_fingerprint(eps)


# --------------------------------------------------------------------------- #
# artifact store
# --------------------------------------------------------------------------- #
class TestFileFactorizationStore:
    def _published(self, tmp_path, grid, eps, fingerprint, **store_kwargs):
        store = FileFactorizationStore(tmp_path, **store_kwargs)
        lu = spla.splu(assemble_system_matrix(grid, OMEGA, eps).tocsc())
        assert store.publish(grid, OMEGA, fingerprint, "direct", lu)
        return store, lu

    def test_roundtrip_reproduces_solves(self, tmp_path, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        store, lu = self._published(tmp_path, grid, eps, fingerprint)
        entry = store.load(grid, OMEGA, fingerprint, "direct")
        assert isinstance(entry, StoredFactorization)
        assert entry.from_store
        rhs = _rhs_stack(grid, 2)
        for b in rhs:
            assert _norm_close(entry.solve(b.ravel()), lu.solve(b.ravel()))
        # Stacked RHS solve matches per-column solves.
        flat = rhs.reshape(2, -1).T
        stacked = entry.solve(flat)
        for col in range(2):
            np.testing.assert_array_equal(stacked[:, col], entry.solve(flat[:, col]))
        assert store.stats.hits == 1
        assert store.stats.publishes == 1
        assert len(store) == 1
        # The header declares the factor dtype of every artifact.
        header = store._read_header(store.path_for(grid, OMEGA, fingerprint, "direct"))
        assert header["dtype"] == "complex128"

    def test_symmetric_mode_factor_roundtrip(self, tmp_path, tiny_problem):
        """The engines' symmetric-mode factors persist and reload like any LU."""
        grid, eps, fingerprint = tiny_problem
        matrix = assemble_system_matrix(grid, OMEGA, eps)
        lu = factor_lu(matrix)
        store = FileFactorizationStore(tmp_path / "symmetric")
        assert store.publish(grid, OMEGA, fingerprint, "direct", lu)
        entry = store.load(grid, OMEGA, fingerprint, "direct")
        assert isinstance(entry, StoredFactorization)
        for b in _rhs_stack(grid, 2):
            x = entry.solve(b.ravel())
            assert _norm_close(x, lu.solve(b.ravel()), rtol=1e-12)
            assert np.linalg.norm(matrix @ x - b.ravel()) <= 1e-10 * np.linalg.norm(b)
        # Fewer stored factor entries than the partial-pivoting default.
        default = FileFactorizationStore(tmp_path / "default")
        assert default.publish(grid, OMEGA, fingerprint, "direct", spla.splu(matrix.tocsc()))
        assert store.stats.bytes_written < default.stats.bytes_written

    def test_missing_artifact_is_a_miss(self, tmp_path, tiny_problem):
        grid, _, fingerprint = tiny_problem
        store = FileFactorizationStore(tmp_path)
        assert store.load(grid, OMEGA, fingerprint, "direct") is None
        assert store.stats.misses == 1
        assert store.stats.failures == 0

    def test_corrupt_header_is_a_miss(self, tmp_path, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        store, _ = self._published(tmp_path, grid, eps, fingerprint)
        path = store.path_for(grid, OMEGA, fingerprint, "direct")
        path.write_bytes(b"not an artifact at all")
        assert store.load(grid, OMEGA, fingerprint, "direct") is None
        assert store.stats.failures == 1

    def test_truncated_artifact_is_a_miss(self, tmp_path, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        store, _ = self._published(tmp_path, grid, eps, fingerprint)
        path = store.path_for(grid, OMEGA, fingerprint, "direct")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert store.load(grid, OMEGA, fingerprint, "direct") is None
        assert store.stats.failures == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scrambled factors overflow
    def test_tampered_payload_fails_the_probe(self, tmp_path, tiny_problem):
        """Structurally valid but numerically wrong factors are rejected."""
        grid, eps, fingerprint = tiny_problem
        store, _ = self._published(tmp_path, grid, eps, fingerprint)
        path = store.path_for(grid, OMEGA, fingerprint, "direct")
        blob = bytearray(path.read_bytes())
        # Scramble a slab of the numeric payload without touching the header.
        start = len(blob) // 2
        blob[start : start + 4096] = os.urandom(4096)
        path.write_bytes(bytes(blob))
        assert store.load(grid, OMEGA, fingerprint, "direct") is None
        assert store.stats.failures == 1

    def test_engine_falls_back_to_fresh_factorization(self, tmp_path, tiny_problem):
        """A corrupt artifact never poisons results — it costs one rebuild."""
        grid, eps, fingerprint = tiny_problem
        store, _ = self._published(tmp_path, grid, eps, fingerprint)
        path = store.path_for(grid, OMEGA, fingerprint, "direct")
        path.write_bytes(b"garbage")
        rhs = _rhs_stack(grid, 2)
        reference = DirectEngine(cache=FactorizationCache()).solve_batch(
            grid, OMEGA, eps, rhs, fingerprint=fingerprint
        )
        cache = FactorizationCache(store=store)
        result = DirectEngine(cache=cache).solve_batch(
            grid, OMEGA, eps, rhs, fingerprint=fingerprint
        )
        np.testing.assert_array_equal(result, reference)
        assert cache.stats.store_misses == 1
        assert cache.stats.factorizations == 1
        # The rebuild re-published a good artifact over the corrupt one.
        assert store.load(grid, OMEGA, fingerprint, "direct") is not None

    def test_store_entries_never_republished(self, tmp_path, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        store, _ = self._published(tmp_path, grid, eps, fingerprint)
        entry = store.load(grid, OMEGA, fingerprint, "direct")
        assert store.publish(grid, OMEGA, fingerprint, "direct", entry) is False
        assert store.stats.publishes == 1

    def test_non_superlu_entries_declined(self, tmp_path, tiny_problem):
        grid, _, fingerprint = tiny_problem
        store = FileFactorizationStore(tmp_path)
        assert store.publish(grid, OMEGA, fingerprint, "direct", object()) is False
        assert store.stats.declined == 1
        assert len(store) == 0

    def test_concurrent_writers_do_not_clobber(self, tmp_path, tiny_problem):
        """Atomic publish: racing writers all succeed, the artifact stays valid."""
        grid, eps, fingerprint = tiny_problem
        store = FileFactorizationStore(tmp_path)
        lu = spla.splu(assemble_system_matrix(grid, OMEGA, eps).tocsc())
        barrier = threading.Barrier(4)
        outcomes = []

        def writer():
            barrier.wait()
            outcomes.append(store.publish(grid, OMEGA, fingerprint, "direct", lu))

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes == [True] * 4
        assert len(store) == 1
        entry = store.load(grid, OMEGA, fingerprint, "direct")
        assert entry is not None
        b = _rhs_stack(grid, 1)[0].ravel()
        assert _norm_close(entry.solve(b), lu.solve(b))
        # No temporary files left behind.
        assert not list(store.directory.glob(".*.tmp-*"))

    def test_budget_prunes_oldest(self, tmp_path, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        eps_b = eps * 1.01
        fingerprint_b = eps_fingerprint(eps_b)
        lu_a = spla.splu(assemble_system_matrix(grid, OMEGA, eps).tocsc())
        lu_b = spla.splu(assemble_system_matrix(grid, OMEGA, eps_b).tocsc())
        probe = FileFactorizationStore(tmp_path / "probe")
        probe.publish(grid, OMEGA, fingerprint, "direct", lu_a)
        artifact_bytes = probe.stats.bytes_written

        store = FileFactorizationStore(tmp_path / "real", budget_bytes=int(artifact_bytes * 1.5))
        store.publish(grid, OMEGA, fingerprint, "direct", lu_a)
        time.sleep(0.01)  # distinct mtimes so pruning order is deterministic
        store.publish(grid, OMEGA, fingerprint_b, "direct", lu_b)
        assert len(store) == 1
        assert store.stats.pruned == 1
        assert store.load(grid, OMEGA, fingerprint_b, "direct") is not None
        assert store.load(grid, OMEGA, fingerprint, "direct") is None

    def _three_artifacts(self, tmp_path, grid, eps):
        """Three same-sized artifacts with strictly increasing mtimes."""
        store = FileFactorizationStore(tmp_path)
        paths = []
        for scale in (1.0, 1.01, 1.02):
            eps_k = eps * scale
            fingerprint_k = eps_fingerprint(eps_k)
            lu = spla.splu(assemble_system_matrix(grid, OMEGA, eps_k).tocsc())
            assert store.publish(grid, OMEGA, fingerprint_k, "direct", lu)
            paths.append(store.path_for(grid, OMEGA, fingerprint_k, "direct"))
            time.sleep(0.01)
        return store, paths  # oldest first

    def test_prune_tolerates_files_vanishing_mid_scan(
        self, tmp_path, tiny_problem, monkeypatch
    ):
        """A file deleted between glob and stat never aborts the prune pass.

        Regression: the scan used to stat inside one list comprehension, so a
        concurrent pruner deleting any artifact mid-scan raised out of the
        whole pass and left the directory over budget indefinitely.
        """
        grid, eps, _ = tiny_problem
        store, paths = self._three_artifacts(tmp_path, grid, eps)
        oldest, middle, newest = paths
        sizes = {path: path.stat().st_size for path in paths}
        # Room for one and a half artifacts: the prune must delete `oldest`
        # (after `newest` vanishes, reclaiming its bytes for us).
        store.budget_bytes = sizes[middle] + sizes[newest] // 2

        real_stat = pathlib.Path.stat
        state = {"fired": False}

        def racing_stat(self, **kwargs):
            if not state["fired"] and self == newest:
                state["fired"] = True
                os.unlink(self)  # a concurrent pruner wins the stat race
            return real_stat(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "stat", racing_stat)
        store._prune()
        monkeypatch.undo()

        assert state["fired"]
        assert not oldest.exists()  # the pass continued past the vanished file
        assert middle.exists()
        assert store.stats.pruned == 1
        assert len(store) == 1

    def test_prune_counts_bytes_reclaimed_by_concurrent_pruner(
        self, tmp_path, tiny_problem, monkeypatch
    ):
        """A file deleted between stat and unlink still counts as reclaimed.

        Regression: losing the unlink race used to leave the running total
        unadjusted, so the pass kept deleting newer artifacts it should have
        kept (the budget was already met by the concurrent deletion).
        """
        grid, eps, _ = tiny_problem
        store, paths = self._three_artifacts(tmp_path, grid, eps)
        oldest, middle, newest = paths
        sizes = {path: path.stat().st_size for path in paths}
        # Room for two and a half artifacts: deleting `oldest` alone meets
        # the budget; anything more is an over-prune.
        store.budget_bytes = sizes[middle] + sizes[newest] + sizes[oldest] // 2

        real_unlink = pathlib.Path.unlink
        state = {"fired": False}

        def racing_unlink(self, **kwargs):
            if not state["fired"] and self == oldest:
                state["fired"] = True
                os.unlink(self)  # a concurrent pruner wins the unlink race
            return real_unlink(self, **kwargs)

        monkeypatch.setattr(pathlib.Path, "unlink", racing_unlink)
        store._prune()
        monkeypatch.undo()

        assert state["fired"]
        assert middle.exists() and newest.exists()  # no over-prune
        assert len(store) == 2

    def test_load_tolerates_artifact_pruned_mid_read(
        self, tmp_path, tiny_problem, monkeypatch
    ):
        """An artifact vanishing mid-load is a plain miss, never a crash."""
        grid, eps, fingerprint = tiny_problem
        store, _ = self._published(tmp_path, grid, eps, fingerprint)
        real_read_header = FileFactorizationStore._read_header

        def delete_after_header(self, path):
            header = real_read_header(self, path)
            path.unlink()  # a concurrent pruner reclaims the file mid-load
            return header

        monkeypatch.setattr(FileFactorizationStore, "_read_header", delete_after_header)
        assert store.load(grid, OMEGA, fingerprint, "direct") is None
        assert store.stats.misses == 1
        assert store.stats.failures == 0  # a vanished file is not corruption

    def test_budget_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_FACTORIZATION_STORE_BYTES", "12345")
        assert default_store_budget_bytes() == 12345
        monkeypatch.setenv("REPRO_FACTORIZATION_STORE_BYTES", "0")
        assert default_store_budget_bytes() == 0
        monkeypatch.delenv("REPRO_FACTORIZATION_STORE_BYTES")
        assert default_store_budget_bytes() == 1 << 30

    def test_list_extras_newest_first(self, tmp_path, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        eps_b = eps * 1.01
        fingerprint_b = eps_fingerprint(eps_b)
        store = FileFactorizationStore(tmp_path)
        lu_a = spla.splu(assemble_system_matrix(grid, OMEGA, eps).tocsc())
        lu_b = spla.splu(assemble_system_matrix(grid, OMEGA, eps_b).tocsc())
        store.publish(grid, OMEGA, fingerprint, "recycled", lu_a, extras={"eps": eps})
        time.sleep(0.01)
        store.publish(grid, OMEGA, fingerprint_b, "recycled", lu_b, extras={"eps": eps_b})
        extras = store.list_extras(grid, OMEGA, tag="recycled", name="eps")
        assert [fp for fp, _ in extras] == [fingerprint_b, fingerprint]
        np.testing.assert_array_equal(extras[0][1].reshape(grid.shape), eps_b)
        limited = store.list_extras(grid, OMEGA, tag="recycled", name="eps", limit=1)
        assert len(limited) == 1 and limited[0][0] == fingerprint_b
        # Different tag: nothing.
        assert store.list_extras(grid, OMEGA, tag="direct", name="eps") == []


# --------------------------------------------------------------------------- #
# cache fall-through
# --------------------------------------------------------------------------- #
class TestCacheFallThrough:
    def test_warm_store_skips_factorization(self, tmp_path, tiny_problem):
        """A fresh cache with a warm store solves without ever factorizing."""
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 2)
        store = FileFactorizationStore(tmp_path)
        publisher_cache = FactorizationCache(store=store)
        cold = DirectEngine(cache=publisher_cache).solve_batch(
            grid, OMEGA, eps, rhs, fingerprint=fingerprint
        )
        assert store.stats.publishes == 1

        fresh_cache = FactorizationCache(store=store)
        warm = DirectEngine(cache=fresh_cache).solve_batch(
            grid, OMEGA, eps, rhs, fingerprint=fingerprint
        )
        assert fresh_cache.stats.factorizations == 0
        assert fresh_cache.stats.store_hits == 1
        assert _norm_close(warm, cold)

    def test_env_var_attaches_store(self, tmp_path, monkeypatch, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        monkeypatch.setenv("REPRO_FACTORIZATION_STORE", str(tmp_path))
        rhs = _rhs_stack(grid, 1)
        cache = FactorizationCache()
        DirectEngine(cache=cache).solve_batch(grid, OMEGA, eps, rhs, fingerprint=fingerprint)
        assert cache.store is not None
        assert len(list(tmp_path.glob("*.fact"))) == 1

        second = FactorizationCache()
        DirectEngine(cache=second).solve_batch(grid, OMEGA, eps, rhs, fingerprint=fingerprint)
        assert second.stats.store_hits == 1
        assert second.stats.factorizations == 0

        monkeypatch.delenv("REPRO_FACTORIZATION_STORE")
        assert cache.store is None

    def test_attach_store_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FACTORIZATION_STORE", str(tmp_path / "env"))
        explicit = FileFactorizationStore(tmp_path / "explicit")
        cache = FactorizationCache()
        cache.attach_store(explicit)
        assert cache.store is explicit
        cache.attach_store(None)
        assert str(cache.store.directory) == str(tmp_path / "env")

    def test_cache_is_thread_safe_under_churn(self, tiny_problem):
        """Concurrent get_or_build/evict/len never corrupt the bookkeeping."""
        grid, eps, fingerprint = tiny_problem
        cache = FactorizationCache(maxsize=4)
        errors = []

        def churn(seed):
            try:
                rng = np.random.default_rng(seed)
                for i in range(25):
                    fp = f"{fingerprint}-{rng.integers(6)}"
                    cache.get_or_build(grid, OMEGA, fp, build=lambda: object())
                    if i % 7 == 0:
                        cache.evict(grid, OMEGA, fp)
                    len(cache)
            except Exception as error:  # pragma: no cover - the failure signal
                errors.append(error)

        threads = [threading.Thread(target=churn, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 4
        stats = cache.stats.as_dict()
        assert stats["misses"] >= stats["factorizations"]

    def test_recycled_adopts_references_from_store(self, tmp_path, tiny_problem):
        """A fresh recycled engine starts exact-solving from published references."""
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 1)
        store = FileFactorizationStore(tmp_path)
        publisher = RecycledEngine(cache=FactorizationCache(store=store))
        reference = publisher.solve_batch(grid, OMEGA, eps, rhs, fingerprint=fingerprint)
        assert publisher.stats.factorizations == 1

        fresh = RecycledEngine(cache=FactorizationCache(store=store))
        assert fresh.warm_from_store(grid, OMEGA) == 1
        result = fresh.solve_batch(grid, OMEGA, eps, rhs, fingerprint=fingerprint)
        assert fresh.stats.factorizations == 0
        assert fresh.stats.exact_solves == 1
        assert _norm_close(result, reference)

    def test_warm_from_store_without_store(self, tiny_problem):
        grid, _, _ = tiny_problem
        engine = RecycledEngine(cache=FactorizationCache())
        assert engine.warm_from_store(grid, OMEGA) == 0


# --------------------------------------------------------------------------- #
# solve service
# --------------------------------------------------------------------------- #
class TestSolveService:
    def test_coalesced_results_bit_identical_to_serial(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 6)
        serial = DirectEngine(cache=FactorizationCache()).solve_batch(
            grid, OMEGA, eps, rhs, fingerprint=fingerprint
        )
        with SolveService(
            engine=DirectEngine(cache=FactorizationCache()), window=0.02
        ) as service:
            futures = [
                service.submit(grid, OMEGA, eps, rhs[i], fingerprint=fingerprint)
                for i in range(6)
            ]
            results = [future.result(timeout=30) for future in futures]
            assert service.engine.cache.stats.factorizations == 1
            assert service.stats.coalesced_rhs >= 1
        for i in range(6):
            np.testing.assert_array_equal(results[i], serial[i])

    def test_requests_group_by_operator(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        eps_b = eps * 1.01
        rhs = _rhs_stack(grid, 1)[0]
        with SolveService(
            engine=DirectEngine(cache=FactorizationCache()), window=0.02
        ) as service:
            future_a = service.submit(grid, OMEGA, eps, rhs, fingerprint=fingerprint)
            future_b = service.submit(grid, OMEGA, eps_b, rhs)
            a, b = future_a.result(timeout=30), future_b.result(timeout=30)
            assert service.stats.batches == 2
            assert service.engine.cache.stats.factorizations == 2
        assert not np.array_equal(a, b)

    def test_max_batch_flushes_without_waiting(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 2)
        # The window is far longer than the timeout: only the size trigger
        # can flush in time.
        with SolveService(
            engine=DirectEngine(cache=FactorizationCache()), window=60.0, max_batch=2
        ) as service:
            futures = [
                service.submit(grid, OMEGA, eps, rhs[i], fingerprint=fingerprint)
                for i in range(2)
            ]
            for future in futures:
                future.result(timeout=30)
            assert service.stats.full_flushes == 1
            assert service.stats.max_batch_seen == 2

    def test_stacked_rhs_keeps_shape(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 3)
        with SolveService(engine=DirectEngine(cache=FactorizationCache())) as service:
            stacked = service.solve(grid, OMEGA, eps, rhs, fingerprint=fingerprint)
            single = service.solve(grid, OMEGA, eps, rhs[0], fingerprint=fingerprint)
        assert stacked.shape == rhs.shape
        assert single.shape == grid.shape
        np.testing.assert_array_equal(stacked[0], single)

    def test_engine_errors_propagate_to_every_waiter(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem

        class Exploding(DirectEngine):
            def solve_batch(self, *args, **kwargs):
                raise RuntimeError("boom")

        rhs = _rhs_stack(grid, 2)
        with SolveService(engine=Exploding(cache=FactorizationCache()), window=0.02) as service:
            futures = [
                service.submit(grid, OMEGA, eps, rhs[i], fingerprint=fingerprint)
                for i in range(2)
            ]
            for future in futures:
                with pytest.raises(RuntimeError, match="boom"):
                    future.result(timeout=30)

    def test_bad_rhs_shape_rejected(self, tiny_problem):
        grid, eps, _ = tiny_problem
        with SolveService(engine=DirectEngine(cache=FactorizationCache())) as service:
            with pytest.raises(ValueError):
                service.submit(grid, OMEGA, eps, np.zeros((3,), dtype=complex))

    def test_close_cancels_pending_and_rejects_new(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 1)[0]
        service = SolveService(
            engine=DirectEngine(cache=FactorizationCache()), window=60.0
        )
        pending = service.submit(grid, OMEGA, eps, rhs, fingerprint=fingerprint)
        service.close()
        # A queued-but-unflushed request resolves by cancellation, never a hang.
        with pytest.raises(concurrent.futures.CancelledError):
            pending.result(timeout=10)
        with pytest.raises(RuntimeError):
            service.submit(grid, OMEGA, eps, rhs)
        service.close()  # idempotent

    def test_per_request_engine_override(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 1)[0]
        counting = CountingEngine()
        with SolveService(engine=DirectEngine(cache=FactorizationCache())) as service:
            service.solve(grid, OMEGA, eps, rhs, fingerprint=fingerprint, engine=counting)
        assert counting.solve_log == [(fingerprint, 1)]


# --------------------------------------------------------------------------- #
# the service as an engine
# --------------------------------------------------------------------------- #
class TestServiceEngine:
    def test_registered_in_engine_registry(self):
        assert "service" in available_engines()
        assert isinstance(make_engine("service"), ServiceEngine)

    def test_as_engine_resolves(self, tiny_problem):
        with SolveService(engine=DirectEngine(cache=FactorizationCache())) as service:
            engine = resolve_engine(service.as_engine())
            assert isinstance(engine, ServiceEngine)
            assert engine.service is service
            # A SolveService itself duck-types as an engine via as_engine().
            assert resolve_engine(service).service is service

    def test_fidelity_signature_matches_backing_engine(self):
        backing = DirectEngine(cache=FactorizationCache())
        with SolveService(engine=backing) as service:
            assert service.as_engine().fidelity_signature == backing.fidelity_signature

    def test_simulation_through_service_matches_direct(self):
        grid, eps, ports = _tiny_waveguide()
        direct = Simulation(grid, eps, 1.55, ports, engine=DirectEngine(cache=FactorizationCache()))
        expected = direct.solve("in").transmissions["out"]
        with SolveService(engine=DirectEngine(cache=FactorizationCache())) as service:
            served = Simulation(grid, eps, 1.55, ports, engine=service.as_engine())
            assert served.solve("in").transmissions["out"] == pytest.approx(expected, rel=1e-9)

    def test_set_permittivity_still_evicts(self):
        grid, eps, ports = _tiny_waveguide()
        with SolveService(engine=DirectEngine(cache=FactorizationCache())) as service:
            sim = Simulation(grid, eps, 1.55, ports, engine=service.as_engine())
            sim.solve("in")
            cache = service.engine.cache
            assert len(cache) > 0
            sim.set_permittivity(eps * 1.01)
            sim.solve("in")
            # Old operator evicted; the new one factorized.
            assert cache.stats.factorizations == 2


# --------------------------------------------------------------------------- #
# end-to-end result cache
# --------------------------------------------------------------------------- #
class TestResultCache:
    def test_identical_query_served_from_cache(self):
        grid, eps, ports = _tiny_waveguide()
        counting = CountingEngine()
        sim = Simulation(grid, eps, 1.55, ports, engine=counting)
        first = sim.solve("in")
        calls = len(counting.solve_log)
        before = result_cache_stats()
        second = sim.solve("in")
        after = result_cache_stats()
        assert len(counting.solve_log) == calls  # engine never consulted
        assert after["hits"] == before["hits"] + 1
        assert second.transmissions == first.transmissions
        np.testing.assert_array_equal(second.ez, first.ez)

    def test_cached_results_are_mutation_safe(self):
        grid, eps, ports = _tiny_waveguide()
        sim = Simulation(grid, eps, 1.55, ports)
        first = sim.solve("in")
        pristine = first.ez.copy()
        first.ez[:] = 0
        first.fluxes["out"] = -1.0
        second = sim.solve("in")
        np.testing.assert_array_equal(second.ez, pristine)
        assert second.fluxes["out"] != -1.0

    def test_different_query_misses(self):
        grid, eps, ports = _tiny_waveguide()
        counting = CountingEngine()
        sim = Simulation(grid, eps, 1.55, ports, engine=counting)
        sim.solve("in")
        calls = len(counting.solve_log)
        sim.solve("out")  # different source port: genuinely new work
        assert len(counting.solve_log) > calls

    def test_permittivity_change_misses(self):
        grid, eps, ports = _tiny_waveguide()
        counting = CountingEngine()
        sim = Simulation(grid, eps, 1.55, ports, engine=counting)
        ez_before = sim.solve("in").ez
        calls = len(counting.solve_log)
        sim.set_permittivity(eps * 1.02)
        ez_after = sim.solve("in").ez
        assert len(counting.solve_log) > calls
        assert not np.array_equal(ez_after, ez_before)

    def test_size_knob_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE_SIZE", "0")
        grid, eps, ports = _tiny_waveguide()
        counting = CountingEngine()
        sim = Simulation(grid, eps, 1.55, ports, engine=counting)
        sim.solve("in")
        calls = len(counting.solve_log)
        sim.solve("in")
        assert len(counting.solve_log) > calls
        assert result_cache_stats()["size"] == 0

    def test_lru_bounded_by_size_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE_SIZE", "1")
        clear_result_cache()
        grid, eps, ports = _tiny_waveguide()
        sim = Simulation(grid, eps, 1.55, ports)
        sim.solve("in")
        sim.solve("out")
        assert result_cache_stats()["size"] == 1

    def test_distinct_counting_engines_never_share_hits(self):
        """Per-instance fidelity tokens keep observing wrappers honest."""
        grid, eps, ports = _tiny_waveguide()
        first = CountingEngine()
        Simulation(grid, eps, 1.55, ports, engine=first).solve("in")
        second = CountingEngine()
        Simulation(grid, eps, 1.55, ports, engine=second).solve("in")
        assert second.solve_log  # not served from the first wrapper's entry


# --------------------------------------------------------------------------- #
# worker-pool plumbing
# --------------------------------------------------------------------------- #
def _read_marker(_task):
    return os.environ.get("REPRO_TEST_INIT_MARKER", "")


def _set_marker(value):
    os.environ["REPRO_TEST_INIT_MARKER"] = value


class TestRunTasksInitializer:
    def test_serial_path_runs_initializer_in_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INIT_MARKER", raising=False)
        report = execute_tasks(
            _read_marker,
            [1, 2],
            workers=1,
            config=ExecutorConfig(max_retries=0),
            initializer=_set_marker,
            initargs=("ready",),
        )
        report.raise_first()
        assert report.results == ["ready", "ready"]
        monkeypatch.delenv("REPRO_TEST_INIT_MARKER", raising=False)

    def test_pool_path_runs_initializer_per_worker(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INIT_MARKER", raising=False)
        report = execute_tasks(
            _read_marker,
            [1, 2],
            workers=2,
            config=ExecutorConfig(max_retries=0),
            initializer=_set_marker,
            initargs=("ready",),
        )
        report.raise_first()
        results = report.results
        # Pool workers each ran the initializer; if the pool could not spawn,
        # the serial fallback ran it in-process — either way every task saw it.
        assert results == ["ready", "ready"]
        monkeypatch.delenv("REPRO_TEST_INIT_MARKER", raising=False)


class TestGeneratorStoreWiring:
    def test_generate_populates_the_store(self, tmp_path):
        from repro.data.generator import GeneratorConfig, DatasetGenerator
        from repro.fdfd.engine import default_factorization_cache

        store_dir = tmp_path / "store"
        config = GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=2,
            fidelities=("low",),
            with_gradient=False,
            seed=0,
            device_kwargs=dict(domain=2.4, design_size=1.2, dl=0.1),
            engine={"low": "direct"},
            workers=1,
            factorization_store=str(store_dir),
        )
        store_before = default_factorization_cache.store
        dataset = DatasetGenerator(config).generate()
        # The serial run attached the store in this process; it must not
        # outlive generate() and capture later, unrelated solves.
        assert default_factorization_cache.store is store_before
        assert len(dataset) == 2
        assert len(list(store_dir.glob("*.fact"))) >= 1


# --------------------------------------------------------------------------- #
# request deadlines, batch retries, and artifact quarantine
# --------------------------------------------------------------------------- #
class _SlowEngine(DirectEngine):
    """Direct tier with an injected per-batch delay (tests deadlines)."""

    def __init__(self, delay, **kwargs):
        super().__init__(**kwargs)
        self._delay = delay

    def solve_batch(self, *args, **kwargs):
        time.sleep(self._delay)
        return super().solve_batch(*args, **kwargs)


class _FlakyEngine(DirectEngine):
    """Direct tier that raises on its first ``fail_times`` batches."""

    def __init__(self, fail_times, **kwargs):
        super().__init__(**kwargs)
        self._remaining = fail_times

    def solve_batch(self, *args, **kwargs):
        if self._remaining > 0:
            self._remaining -= 1
            raise RuntimeError("transient engine failure")
        return super().solve_batch(*args, **kwargs)


class TestServiceTimeouts:
    def test_timeout_fails_only_the_timed_out_request(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 2)
        reference = DirectEngine(cache=FactorizationCache()).solve_batch(
            grid, OMEGA, eps, rhs, fingerprint=fingerprint
        )
        with SolveService(
            engine=_SlowEngine(1.0, cache=FactorizationCache()), window=0.02
        ) as service:
            # Both requests coalesce into one batch; only the one carrying a
            # deadline shorter than the engine delay may fail.
            impatient = service.submit(
                grid, OMEGA, eps, rhs[0], fingerprint=fingerprint, timeout=0.2
            )
            patient = service.submit(grid, OMEGA, eps, rhs[1], fingerprint=fingerprint)
            with pytest.raises(SolveTimeoutError) as excinfo:
                impatient.result(timeout=30)
            np.testing.assert_array_equal(patient.result(timeout=30), reference[1])
            assert service.stats.timeouts == 1
            assert service.stats.batches == 1  # sibling was never re-solved
        error = excinfo.value
        assert error.timeout == pytest.approx(0.2)
        signature, group_grid, omega, group_fingerprint = error.group
        assert group_fingerprint == fingerprint
        assert group_grid is grid and omega == pytest.approx(OMEGA)
        assert "timed out" in str(error)

    def test_service_level_default_timeout(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 1)[0]
        with SolveService(
            engine=_SlowEngine(5.0, cache=FactorizationCache()),
            window=0.02,
            timeout=0.2,
        ) as service:
            future = service.submit(grid, OMEGA, eps, rhs, fingerprint=fingerprint)
            with pytest.raises(SolveTimeoutError):
                future.result(timeout=30)
        assert service.stats.timeouts == 1

    def test_request_completing_in_time_is_unaffected(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 1)[0]
        reference = DirectEngine(cache=FactorizationCache()).solve_batch(
            grid, OMEGA, eps, rhs[None], fingerprint=fingerprint
        )[0]
        with SolveService(engine=DirectEngine(cache=FactorizationCache())) as service:
            result = service.solve(
                grid, OMEGA, eps, rhs, fingerprint=fingerprint, timeout=30.0
            )
        np.testing.assert_array_equal(result, reference)
        assert service.stats.timeouts == 0

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            SolveService(timeout=0.0)


class TestServiceRetries:
    def test_flaky_batch_retried_transparently(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 1)[0]
        reference = DirectEngine(cache=FactorizationCache()).solve_batch(
            grid, OMEGA, eps, rhs[None], fingerprint=fingerprint
        )[0]
        with SolveService(
            engine=_FlakyEngine(1, cache=FactorizationCache()),
            window=0.02,
            max_retries=1,
        ) as service:
            result = service.solve(grid, OMEGA, eps, rhs, fingerprint=fingerprint)
        np.testing.assert_array_equal(result, reference)
        assert service.stats.retries == 1
        assert service.stats.batches == 2

    def test_retries_exhausted_forwards_the_error(self, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        rhs = _rhs_stack(grid, 1)[0]
        with SolveService(
            engine=_FlakyEngine(10, cache=FactorizationCache()),
            window=0.02,
            max_retries=1,
        ) as service:
            future = service.submit(grid, OMEGA, eps, rhs, fingerprint=fingerprint)
            with pytest.raises(RuntimeError, match="transient engine failure"):
                future.result(timeout=30)
        assert service.stats.retries == 1


class TestStoreQuarantine:
    def _published(self, tmp_path, grid, eps, fingerprint):
        store = FileFactorizationStore(tmp_path)
        lu = spla.splu(assemble_system_matrix(grid, OMEGA, eps).tocsc())
        assert store.publish(grid, OMEGA, fingerprint, "direct", lu)
        return store

    def test_corrupt_artifact_quarantined_once(self, tmp_path, tiny_problem, caplog):
        grid, eps, fingerprint = tiny_problem
        store = self._published(tmp_path, grid, eps, fingerprint)
        path = store.path_for(grid, OMEGA, fingerprint, "direct")
        path.write_bytes(b"not an artifact at all")
        with caplog.at_level("WARNING", logger="repro.service.cache_store"):
            assert store.load(grid, OMEGA, fingerprint, "direct") is None
            assert store.load(grid, OMEGA, fingerprint, "direct") is None
        assert store.stats.failures == 1  # second load is a plain miss
        assert store.stats.misses == 2
        assert store.stats.quarantined == 1
        assert not path.exists()
        assert path.with_name(path.name + ".bad").exists()
        quarantine_logs = [r for r in caplog.records if "quarantined" in r.message]
        assert len(quarantine_logs) == 1

    def test_quarantined_artifact_invisible_to_enumeration(self, tmp_path, tiny_problem):
        grid, eps, fingerprint = tiny_problem
        store = self._published(tmp_path, grid, eps, fingerprint)
        path = store.path_for(grid, OMEGA, fingerprint, "direct")
        path.write_bytes(b"garbage")
        assert store.load(grid, OMEGA, fingerprint, "direct") is None
        assert len(store) == 0  # the corpse no longer counts against the budget

    def test_transient_io_error_does_not_quarantine(self, tmp_path, tiny_problem, monkeypatch):
        grid, eps, fingerprint = tiny_problem
        store = self._published(tmp_path, grid, eps, fingerprint)
        path = store.path_for(grid, OMEGA, fingerprint, "direct")
        monkeypatch.setattr(
            store,
            "_read_artifact",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk hiccup")),
        )
        assert store.load(grid, OMEGA, fingerprint, "direct") is None
        assert store.stats.failures == 1
        assert store.stats.quarantined == 0
        assert path.exists()  # transient errors leave the artifact alone

    def test_publish_failsoft_on_disk_errors(self, tmp_path, tiny_problem, monkeypatch):
        grid, eps, fingerprint = tiny_problem
        store = FileFactorizationStore(tmp_path)
        lu = spla.splu(assemble_system_matrix(grid, OMEGA, eps).tocsc())
        monkeypatch.setattr(
            store,
            "_write_artifact",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        assert store.publish(grid, OMEGA, fingerprint, "direct", lu) is False
        assert store.stats.declined == 1
        assert store.stats.publishes == 0
