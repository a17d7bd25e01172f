"""Tests for the solve service.

Covers the serving seam end to end: request coalescing bit-identity, the
engine-shaped service front-end through :class:`Simulation`, repeated
simulation queries, request deadlines and batch retries.
"""

from __future__ import annotations

import concurrent.futures
import time

import numpy as np
import pytest

from repro import constants
from repro.fdfd import Grid, Port, Simulation
from repro.fdfd.engine import (
    CountingEngine,
    DirectEngine,
    FactorizationCache,
    available_engines,
    eps_fingerprint,
    make_engine,
    resolve_engine,
)
from repro.service import ServiceEngine, SolveService, SolveTimeoutError

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


@pytest.fixture()
def tiny_problem():
    grid, eps, _ = _tiny_waveguide()
    return grid, eps, eps_fingerprint(eps)


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
# repeated queries of one simulation
# --------------------------------------------------------------------------- #
class TestRepeatedSimulationQueries:
    def test_results_are_mutation_safe(self):
        grid, eps, ports = _tiny_waveguide()
        sim = Simulation(grid, eps, 1.55, ports)
        first = sim.solve("in")
        pristine = first.ez.copy()
        first.ez[:] = 0
        first.fluxes["out"] = -1.0
        second = sim.solve("in")
        np.testing.assert_array_equal(second.ez, pristine)
        assert second.fluxes["out"] != -1.0

    def test_different_query_solves(self):
        grid, eps, ports = _tiny_waveguide()
        counting = CountingEngine()
        sim = Simulation(grid, eps, 1.55, ports, engine=counting)
        sim.solve("in")
        calls = len(counting.solve_log)
        sim.solve("out")  # different source port: genuinely new work
        assert len(counting.solve_log) > calls

    def test_permittivity_change_solves(self):
        grid, eps, ports = _tiny_waveguide()
        counting = CountingEngine()
        sim = Simulation(grid, eps, 1.55, ports, engine=counting)
        ez_before = sim.solve("in").ez
        calls = len(counting.solve_log)
        sim.set_permittivity(eps * 1.02)
        ez_after = sim.solve("in").ez
        assert len(counting.solve_log) > calls
        assert not np.array_equal(ez_after, ez_before)


# --------------------------------------------------------------------------- #
# request deadlines and batch retries
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
