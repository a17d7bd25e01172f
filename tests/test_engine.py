"""Tests for the solver-engine layer: cache, engines, batching, rewiring."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import constants
from repro.devices.factory import available_devices, make_device
from repro.fdfd import Grid, Port, Simulation
from repro.fdfd.monitors import port_rows
import repro.fdfd.engine as engine_module
from repro.fdfd.engine import (
    CountingEngine,
    DirectEngine,
    FactorizationCache,
    RecycledEngine,
    RefinementError,
    SolverEngine,
    available_engines,
    eps_fingerprint,
    assemble_system_matrix,
    factor_lu,
    iterative_refine,
    make_engine,
    resolve_engine,
)
from repro.fdfd.simulation import ExcitationSpec
from repro.fdfd.solver import FdfdSolver
from repro.invdes.adjoint import NumericalFieldBackend, evaluate_spec, evaluate_specs

OMEGA = constants.wavelength_to_omega(1.55)


def _straight_waveguide(dl=0.1, domain=3.0, width=0.48):
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


#: A design region between the straight guide's ports: the recycled tier
#: recycles on a region only, so its tests drive point sources and
#: permittivity changes inside it and name the port rows.
_REGION = (slice(16, 30), slice(16, 30))


def _rows(grid, ports):
    return port_rows(tuple(ports), grid)


def _region_recycled(**kwargs) -> RecycledEngine:
    return RecycledEngine(cache=FactorizationCache(), design_region=_REGION, **kwargs)


def _in_region(eps, change):
    """``eps`` plus ``change`` (a scalar or grid-shaped) on :data:`_REGION` only."""
    changed = np.array(eps, copy=True)
    changed[_REGION] += np.broadcast_to(change, changed.shape)[_REGION]
    return changed


def _region_sources(grid, count, seed=0):
    """Point sources inside :data:`_REGION`."""
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(count):
        source = np.zeros(grid.shape, dtype=complex)
        source[rng.integers(_REGION[0].start, _REGION[0].stop),
               rng.integers(_REGION[1].start, _REGION[1].stop)] = 1.0 + 0.5j
        sources.append(source)
    return sources


def _point_sources(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    sources = []
    for _ in range(count):
        source = np.zeros(grid.shape, dtype=complex)
        ix = rng.integers(grid.npml + 2, grid.nx - grid.npml - 2)
        iy = rng.integers(grid.npml + 2, grid.ny - grid.npml - 2)
        source[ix, iy] = 1.0 + 0.5j
        sources.append(source)
    return sources


@pytest.fixture()
def tiny_problem():
    grid, eps, _ = _straight_waveguide(domain=2.4)
    return grid, eps, eps_fingerprint(eps)


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprint:
    def test_equal_content_equal_fingerprint(self):
        a = np.random.default_rng(0).random((8, 9))
        assert eps_fingerprint(a) == eps_fingerprint(a.copy())

    def test_different_content_different_fingerprint(self):
        a = np.ones((4, 4))
        b = a.copy()
        b[2, 2] += 1e-12
        assert eps_fingerprint(a) != eps_fingerprint(b)

    def test_shape_and_dtype_matter(self):
        a = np.zeros((2, 8))
        assert eps_fingerprint(a) != eps_fingerprint(a.reshape(4, 4))
        assert eps_fingerprint(np.zeros(4)) != eps_fingerprint(np.zeros(4, dtype=np.float32))

    def test_non_contiguous_input(self):
        a = np.arange(32, dtype=float).reshape(4, 8)
        assert eps_fingerprint(a[:, ::2]) == eps_fingerprint(np.ascontiguousarray(a[:, ::2]))


# --------------------------------------------------------------------------- #
# factorization cache
# --------------------------------------------------------------------------- #
class TestFactorizationCache:
    def test_hits_and_misses(self):
        cache = FactorizationCache(maxsize=4)
        grid = Grid(nx=20, ny=20, dl=0.1, npml=5)
        built = []
        for _ in range(3):
            cache.get_or_build(grid, OMEGA, "fp", lambda: built.append(1) or "entry")
        assert built == [1]
        assert cache.stats.misses == 1 and cache.stats.hits == 2

    def test_lru_eviction(self):
        cache = FactorizationCache(maxsize=2)
        grid = Grid(nx=20, ny=20, dl=0.1, npml=5)
        for fp in ("a", "b", "c"):
            cache.get_or_build(grid, OMEGA, fp, lambda fp=fp: fp.upper())
        assert len(cache) == 2
        assert cache.peek(grid, OMEGA, "a") is None
        assert cache.peek(grid, OMEGA, "c") == "C"
        assert cache.stats.evictions == 1

    def test_evict_and_clear(self):
        cache = FactorizationCache(maxsize=4)
        grid = Grid(nx=20, ny=20, dl=0.1, npml=5)
        cache.get_or_build(grid, OMEGA, "a", lambda: "A")
        assert cache.evict(grid, OMEGA, "a") == 1
        assert cache.evict(grid, OMEGA, "a") == 0
        cache.get_or_build(grid, OMEGA, "a", lambda: "A")
        cache.clear()
        assert len(cache) == 0 and cache.stats.misses == 0

    def test_clear_inside_scoped_stats_keeps_counting(self):
        """Regression: clear() resets the stats in place, so a scope sees later work."""
        from repro.fdfd.engine import scoped_stats

        cache = FactorizationCache(maxsize=1)
        grid = Grid(nx=20, ny=20, dl=0.1, npml=5)
        small, large = np.zeros(8), np.zeros(16)
        with scoped_stats(cache) as (scoped,):
            cache.get_or_build(grid, OMEGA, "a", lambda: small)
            cache.clear()
            assert cache.stats is scoped
            cache.get_or_build(grid, OMEGA, "a", lambda: small)
            cache.get_or_build(grid, OMEGA, "b", lambda: large)  # evicts a
        assert scoped.misses == 2 and scoped.evictions == 1
        assert len(cache) == 1
        assert cache.stats.current_bytes == large.nbytes

    def test_tags_are_namespaced(self):
        cache = FactorizationCache(maxsize=4)
        grid = Grid(nx=20, ny=20, dl=0.1, npml=5)
        cache.get_or_build(grid, OMEGA, "fp", lambda: "direct-entry", tag="direct")
        cache.get_or_build(grid, OMEGA, "fp", lambda: "recycled-entry", tag="recycled")
        assert cache.stats.misses == 2
        assert cache.peek(grid, OMEGA, "fp", tag="recycled") == "recycled-entry"

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            FactorizationCache(maxsize=0)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FACTORIZATION_CACHE_SIZE", "3")
        assert FactorizationCache().maxsize == 3
        monkeypatch.setenv("REPRO_FACTORIZATION_CACHE_SIZE", "0")
        with pytest.raises(ValueError):
            FactorizationCache()
        monkeypatch.delenv("REPRO_FACTORIZATION_CACHE_SIZE")
        assert FactorizationCache().maxsize == 8

    def test_lru_eviction_order_respects_access(self):
        """A get refreshes an entry: the least-recently *used* entry goes first."""
        cache = FactorizationCache(maxsize=2)
        grid = Grid(nx=20, ny=20, dl=0.1, npml=5)
        cache.get_or_build(grid, OMEGA, "a", lambda: "A")
        cache.get_or_build(grid, OMEGA, "b", lambda: "B")
        cache.get_or_build(grid, OMEGA, "a", lambda: "A'")  # hit: a is now newest
        cache.get_or_build(grid, OMEGA, "c", lambda: "C")  # evicts b, not a
        assert cache.peek(grid, OMEGA, "a") == "A"
        assert cache.peek(grid, OMEGA, "b") is None
        assert cache.peek(grid, OMEGA, "c") == "C"

    def test_byte_accounting_exact_under_thread_churn(self):
        """``current_bytes`` never drifts, even across double-build races.

        Regression guard for the lost-build-race bookkeeping in ``_insert``:
        many threads hammering overlapping cold keys through a tiny cache
        force simultaneous builds of the same key (last insert wins) plus
        constant LRU eviction; afterwards the byte counter must equal the
        recomputed sum over the entries actually held — any unpaired
        add/subtract shows up as permanent drift.
        """
        from repro.fdfd.engine import _entry_nbytes

        cache = FactorizationCache(maxsize=4)
        grid = Grid(nx=20, ny=20, dl=0.1, npml=5)
        fingerprints = [f"fp{i}" for i in range(8)]
        barrier = threading.Barrier(6)

        def churn(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            for _ in range(300):
                index = int(rng.integers(len(fingerprints)))
                cache.get_or_build(
                    grid,
                    OMEGA,
                    fingerprints[index],
                    lambda index=index: np.zeros(64 * (index + 1)),
                )

        threads = [threading.Thread(target=churn, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        held = [cache.peek(grid, OMEGA, fingerprint) for fingerprint in fingerprints]
        expected = sum(_entry_nbytes(entry) for entry in held if entry is not None)
        assert cache.stats.current_bytes == expected
        assert len(cache) <= 4

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

    def test_in_place_eps_mutation_invalidates_fingerprint(self):
        """Content fingerprints key the cache: mutated eps_r never hits stale LUs."""
        grid, eps, _ = _straight_waveguide()
        engine = DirectEngine(cache=FactorizationCache())
        rhs = np.stack(_point_sources(grid, 1))
        first = engine.solve_batch(grid, OMEGA, eps, rhs)
        assert engine.cache.stats.misses == 1
        eps[grid.nx // 2 - 2 : grid.nx // 2 + 2, :] = 1.0  # mutate in place
        second = engine.solve_batch(grid, OMEGA, eps, rhs)
        assert engine.cache.stats.misses == 2  # refactorized, no stale hit
        assert np.max(np.abs(first - second)) > 1e-6 * np.max(np.abs(first))


# --------------------------------------------------------------------------- #
# engine equivalence
# --------------------------------------------------------------------------- #
class TestDirectEngine:
    def test_batched_matches_sequential_forward(self):
        grid, eps, _ = _straight_waveguide()
        sources = _point_sources(grid, 4)
        solver = FdfdSolver(grid, OMEGA, engine=DirectEngine(cache=FactorizationCache()))
        sequential = [solver.solve(eps, s).ez for s in sources]
        batched = solver.solve_batch(eps, sources)
        for seq, bat in zip(sequential, batched):
            np.testing.assert_allclose(bat.ez, seq, rtol=1e-10, atol=1e-16)

    def test_batched_matches_sequential_adjoint(self):
        grid, eps, _ = _straight_waveguide()
        sources = _point_sources(grid, 3, seed=7)
        solver = FdfdSolver(grid, OMEGA, engine=DirectEngine(cache=FactorizationCache()))
        sequential = [solver.solve_adjoint(eps, s) for s in sources]
        batched = solver.solve_adjoint_batch(eps, sources)
        for seq, bat in zip(sequential, batched):
            np.testing.assert_allclose(bat, seq, rtol=1e-10, atol=1e-16)

    def test_batch_factorizes_once(self):
        grid, eps, _ = _straight_waveguide()
        engine = DirectEngine(cache=FactorizationCache())
        engine.solve_batch(grid, OMEGA, eps, np.stack(_point_sources(grid, 5)))
        assert engine.cache.stats.misses == 1

    def test_rhs_shape_validation(self):
        grid, eps, _ = _straight_waveguide()
        engine = DirectEngine(cache=FactorizationCache())
        with pytest.raises(ValueError):
            engine.solve_batch(grid, OMEGA, eps, np.zeros((3, 3), dtype=complex))
        with pytest.raises(ValueError):
            engine.solve_batch(grid, OMEGA, eps[:-1], np.zeros((1, *grid.shape)))


def _probe_residual(matrix, lu) -> float:
    probe = np.ones(matrix.shape[0], dtype=matrix.dtype)
    return float(np.linalg.norm(matrix @ lu.solve(probe) - probe) / np.linalg.norm(probe))


class TestFactorLu:
    BOUND = 1e-10

    @staticmethod
    def _count_splu(monkeypatch):
        calls = []
        real = spla.splu

        def counting(matrix, **kwargs):
            calls.append(kwargs)
            return real(matrix, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        return calls

    @pytest.mark.parametrize("fidelity", ["low", "high"])
    @pytest.mark.parametrize("name", available_devices())
    def test_symmetric_mode_meets_bound_on_the_zoo(self, name, fidelity, monkeypatch):
        device = make_device(name, fidelity=fidelity)
        density = np.random.default_rng(0).uniform(size=device.design_shape)
        spec = device.specs[0]
        eps = device.apply_state(device.eps_with_design(density), spec.state)
        matrix = assemble_system_matrix(
            device.grid, constants.wavelength_to_omega(spec.wavelength), eps
        )
        calls = self._count_splu(monkeypatch)
        lu = factor_lu(matrix)
        assert np.dtype(lu.L.dtype) == np.dtype(np.complex128)
        assert _probe_residual(matrix, lu) <= self.BOUND
        # The symmetric-mode factor passed its probe: no fallback refactor.
        assert [c.get("options") for c in calls] == [{"SymmetricMode": True}]

    @pytest.mark.parametrize(
        "corrupt",
        [lambda x: 2.0 * x, lambda x: np.full_like(x, np.nan)],
        ids=["inaccurate", "non-finite"],
    )
    def test_bad_factor_falls_back_to_default_pivoting(self, corrupt, monkeypatch):
        grid, eps, _ = _straight_waveguide()
        matrix = assemble_system_matrix(grid, OMEGA, eps)
        calls = self._count_splu(monkeypatch)
        counting = spla.splu

        class Corrupted:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return corrupt(self.lu.solve(b))

        def first_corrupted(matrix, **kwargs):
            lu = counting(matrix, **kwargs)
            return Corrupted(lu) if len(calls) == 1 else lu

        monkeypatch.setattr(spla, "splu", first_corrupted)
        lu = factor_lu(matrix)
        assert len(calls) == 2 and calls[1] == {}
        assert isinstance(lu, spla.SuperLU)
        assert _probe_residual(matrix, lu) <= self.BOUND


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_names_available(self):
        names = available_engines()
        for name in ("direct", "superlu", "high", "recycled"):
            assert name in names

    def test_make_engine(self):
        assert isinstance(make_engine("direct"), DirectEngine)
        assert isinstance(make_engine("high"), DirectEngine)
        assert isinstance(make_engine("recycled", design_region=_REGION), RecycledEngine)

    def test_unknown_engine_rejected(self):
        # A name no tier registers fails loudly, never falls back to a tier.
        for name in ("quantum", "iterative", "low", "bicgstab", "gmres", "refined"):
            assert name not in available_engines()
            with pytest.raises(ValueError, match="unknown engine"):
                make_engine(name)

    def test_resolve_engine(self):
        engine = DirectEngine()
        assert resolve_engine(engine) is engine
        assert isinstance(resolve_engine(None), DirectEngine)
        assert isinstance(resolve_engine("recycled", design_region=_REGION), RecycledEngine)
        with pytest.raises(TypeError):
            resolve_engine(42)

    def test_neural_engine_requires_model(self):
        with pytest.raises(ValueError):
            make_engine("neural")


class _ScaledIdentity:
    """A 'factorization' whose corrections never contract the residual."""

    def __init__(self, scale):
        self.scale = scale

    def solve(self, rhs):
        return self.scale * np.asarray(rhs)


def _refinement_problem(domain=3.0, n_rhs=2):
    """The exact LU of a reference operator refined towards ``A = A_ref + diag(delta)``."""
    grid, eps, _ = _straight_waveguide(domain=domain)
    rhs = np.stack(_point_sources(grid, n_rhs))
    target = eps + 0.01 * np.random.default_rng(0).random(eps.shape)
    delta = (OMEGA**2 * constants.EPSILON_0 * (target - eps).ravel()).astype(complex)
    lu = DirectEngine(cache=FactorizationCache()).factorize(grid, OMEGA, eps)
    exact = DirectEngine(cache=FactorizationCache()).solve_batch(grid, OMEGA, target, rhs)
    return {
        "apply_inverse": lu.solve,
        "rhs": rhs.reshape(n_rhs, -1),
        "matrix": assemble_system_matrix(grid, OMEGA, target),
        "delta": delta,
        "exact": exact.reshape(n_rhs, -1),
    }


@pytest.mark.parametrize("update", ["recurrence"])
class TestIterativeRefine:
    """The recycled tier's refinement kernel on its matvec-free residual update."""

    RTOL = 1e-10

    def _refine(self, problem, x0=None, rhs=None):
        return iterative_refine(
            problem["apply_inverse"],
            problem["rhs"] if rhs is None else rhs,
            self.RTOL,
            50,
            problem["delta"],
            matrix=problem["matrix"],
            x0=x0,
        )

    def test_converges_to_rtol_against_direct(self, update):
        problem = _refinement_problem()
        x, sweeps, back_substitutions = self._refine(problem)
        rhs, exact = problem["rhs"], problem["exact"]
        residual = rhs - (problem["matrix"] @ x.T).T
        # The recurrence tracks the true residual up to fp64 roundoff.
        assert np.all(
            np.linalg.norm(residual, axis=1) <= 2 * self.RTOL * np.linalg.norm(rhs, axis=1)
        )
        assert np.max(np.abs(x - exact)) <= 1e-8 * np.max(np.abs(exact))
        assert sweeps >= 1
        assert sweeps <= back_substitutions <= sweeps * rhs.shape[0]

    def test_warm_start_cuts_sweeps(self, update):
        problem = _refinement_problem()
        cold, cold_sweeps, _ = self._refine(problem)
        guess = cold * (1.0 + 1e-6 * np.random.default_rng(3).random(cold.shape))
        warm, warm_sweeps, _ = self._refine(problem, x0=guess)
        assert warm_sweeps < cold_sweeps
        np.testing.assert_allclose(warm, cold, atol=1e-8 * np.max(np.abs(cold)))

    def test_zero_rhs_returns_zeros_without_sweeping(self, update):
        problem = _refinement_problem()
        problem["apply_inverse"] = _ScaledIdentity(np.nan).solve  # must not run
        x, sweeps, back_substitutions = self._refine(
            problem, rhs=np.zeros_like(problem["rhs"])
        )
        assert sweeps == 0 and back_substitutions == 0
        assert x.shape == problem["rhs"].shape and not np.any(x)

    def test_divergence_raises(self, update):
        """A non-contracting 'inverse' must fail loudly, never return junk."""
        problem = _refinement_problem(domain=1.2)
        with pytest.raises(RefinementError):
            iterative_refine(lambda r: 1e-3 * r, problem["rhs"], 1e-10, 5, problem["delta"])


class _CountingIdentity:
    """``M = I``: refinement towards ``I + diag(delta)`` contracts by ``|delta|`` per sweep."""

    def __init__(self):
        self.back_substitutions = 0

    def solve(self, rhs):
        rhs = np.asarray(rhs)
        self.back_substitutions += rhs.shape[1]
        return rhs.copy()


@pytest.mark.parametrize("rate", [0.25, 0.9])
def test_refinement_that_cannot_reach_rtol_gives_up_after_one_sweep(rate):
    """``rate**16 > rtol``: the first sweep's contraction predicts the miss, so
    refinement raises after it instead of spending all 16 sweeps."""
    rhs = np.random.default_rng(0).normal(size=(2, 50)) + 0j
    inverse = _CountingIdentity()
    with pytest.raises(RefinementError, match="cannot reach"):
        iterative_refine(inverse.solve, rhs, 1e-10, 16, np.full(50, rate, dtype=complex))
    assert inverse.back_substitutions == 2  # one sweep of both rows, not 16


@pytest.mark.parametrize("rate,sweeps", [(0.02, 6), (0.2, 15)])
def test_refinement_that_reaches_rtol_sweeps_to_convergence(rate, sweeps):
    """``rate**16 <= rtol``: refinement runs the sweeps convergence needs, as before."""
    rhs = np.random.default_rng(0).normal(size=(2, 50)) + 0j
    delta = np.full(50, rate, dtype=complex)
    inverse = _CountingIdentity()
    x, done, back_substitutions = iterative_refine(inverse.solve, rhs, 1e-10, 16, delta)
    assert done == sweeps
    assert back_substitutions == inverse.back_substitutions == 2 * sweeps
    np.testing.assert_allclose(x, rhs / (1.0 + delta), rtol=1e-9)


# --------------------------------------------------------------------------- #
# simulation batching
# --------------------------------------------------------------------------- #
class TestSolveMulti:
    def test_matches_sequential_solve(self):
        grid, eps, ports = _straight_waveguide()
        sim = Simulation(grid, eps, 1.55, ports)
        sequential = [sim.solve("in"), sim.solve("out")]
        batched = sim.solve_multi([ExcitationSpec("in"), ExcitationSpec("out")])
        for seq, bat in zip(sequential, batched):
            np.testing.assert_allclose(bat.ez, seq.ez, rtol=1e-10, atol=1e-18)
            assert bat.transmissions == seq.transmissions

    def test_accepts_tuples_and_empty(self):
        grid, eps, ports = _straight_waveguide()
        sim = Simulation(grid, eps, 1.55, ports)
        assert sim.solve_multi([]) == []
        results = sim.solve_multi([("in", 0)])
        assert results[0].source_port == "in"

    def test_in_place_eps_mutation_refactorizes(self):
        """Mutating sim.eps_r directly must not hit a stale factorization."""
        grid, eps, ports = _straight_waveguide()
        sim = Simulation(grid, eps, 1.55, ports, engine=DirectEngine(cache=FactorizationCache()))
        first = sim.solve("in")
        sim.eps_r[grid.nx // 2 - 2 : grid.nx // 2 + 2, :] = 1.0
        second = sim.solve("in")
        assert np.max(np.abs(first.ez - second.ez)) > 1e-6 * np.max(np.abs(first.ez))
        # The normalization is tied to the permittivity too, through the
        # source-port cross-section: widen the guide in place, ports included.
        y = grid.y_coords()
        sim.eps_r[:, np.abs(y - grid.size_y / 2) <= 0.4] = constants.EPS_SI
        third = sim.solve("in")
        # A counting engine carries its own fidelity token, so the fresh
        # simulation computes its normalization instead of sharing sim's.
        fresh = Simulation(grid, sim.eps_r.copy(), 1.55, ports, engine=CountingEngine())
        expected = fresh.solve("in")
        assert third.input_flux == expected.input_flux
        assert third.input_overlap == expected.input_overlap
        assert abs(third.input_flux - first.input_flux) / first.input_flux > 1e-6
        assert third.input_overlap != first.input_overlap

    def test_clear_cache_evicts_every_solved_eps(self):
        grid, eps, _ = _straight_waveguide()
        engine = DirectEngine(cache=FactorizationCache())
        solver = FdfdSolver(grid, OMEGA, engine=engine)
        source = _point_sources(grid, 1)[0]
        solver.solve(eps, source)
        solver.solve(eps + 0.5, source)
        assert len(engine.cache) == 2
        solver.clear_cache()
        assert len(engine.cache) == 0

    def test_batch_factorizes_design_once(self):
        grid, eps, ports = _straight_waveguide()
        engine = CountingEngine()
        sim = Simulation(grid, eps, 1.55, ports, engine=engine)
        sim.solve_multi([ExcitationSpec("in"), ExcitationSpec("out")])
        design_fp = sim._eps_fingerprint
        # Both excitations in one batched solve; the normalization runs that
        # follow (whose extruded eps equals the straight-waveguide design) hit
        # the same factorization instead of building their own.
        batch_sizes = [n for fp, n in engine.solve_log if fp == design_fp]
        assert batch_sizes[0] == 2
        assert engine.factorizations[design_fp] == 1


# --------------------------------------------------------------------------- #
# adjoint path through the engine layer
# --------------------------------------------------------------------------- #
class TestAdjointFactorizesOnce:
    def test_forward_and_adjoint_share_one_factorization(self, tiny_bend):
        density = np.full(tiny_bend.design_shape, 0.5)
        engine = CountingEngine()
        backend = NumericalFieldBackend(engine=engine)
        evaluation = evaluate_spec(
            tiny_bend, density, tiny_bend.specs[0], backend=backend, compute_gradient=True
        )
        assert evaluation.adjoint_field is not None

        eps = tiny_bend.eps_with_design(density)
        design_fp = eps_fingerprint(eps)
        # Forward + adjoint both solved against the design operator...
        design_calls = [n for fp, n in engine.solve_log if fp == design_fp]
        assert len(design_calls) >= 2
        # ... but the operator was factorized exactly once.
        assert engine.factorizations[design_fp] == 1

    def test_multi_spec_device_factorizes_once_per_operator(self):
        from repro.devices.factory import make_device

        device = make_device("mdm", domain=3.5, design_size=1.6, dl=0.1)
        assert len(device.specs) == 2
        density = np.full(device.design_shape, 0.5)
        engine = CountingEngine()
        backend = NumericalFieldBackend(engine=engine)
        evaluations = evaluate_specs(device, density, backend=backend, compute_gradient=True)
        assert len(evaluations) == 2

        design_fp = eps_fingerprint(device.eps_with_design(density))
        # Both specs share a wavelength and state: one operator, one
        # factorization, despite 2 forward + 2 adjoint solves.
        assert engine.factorizations[design_fp] == 1
        design_batches = [n for fp, n in engine.solve_log if fp == design_fp]
        assert design_batches == [2, 2]

    def test_batched_evaluation_matches_sequential(self):
        from repro.devices.factory import make_device
        from repro.invdes.adjoint import FieldBackend

        class SequentialBackend(FieldBackend):
            """Forces the unbatched default code path."""

            def __init__(self):
                self._inner = NumericalFieldBackend()

            def forward_fields(self, sim, spec):
                return self._inner.forward_fields(sim, spec)

            def adjoint_field(self, sim, spec, adjoint_source):
                return self._inner.adjoint_field(sim, spec, adjoint_source)

        device = make_device("mdm", domain=3.5, design_size=1.6, dl=0.1)
        density = np.clip(
            0.5 + 0.2 * np.random.default_rng(5).normal(size=device.design_shape), 0, 1
        )
        batched = evaluate_specs(device, density, compute_gradient=True)
        sequential = evaluate_specs(
            device, density, backend=SequentialBackend(), compute_gradient=True
        )
        for bat, seq in zip(batched, sequential):
            assert bat.objective_value == pytest.approx(seq.objective_value, rel=1e-10)
            np.testing.assert_allclose(
                bat.grad_density, seq.grad_density, rtol=1e-8, atol=1e-20
            )


# --------------------------------------------------------------------------- #
# engine equivalence: forward + adjoint across tiers and grid sizes
# --------------------------------------------------------------------------- #
GRID_SIZES = [
    dict(domain=3.0, design_size=1.4, dl=0.1),
    dict(domain=2.4, design_size=1.1, dl=0.08),
]


class TestEngineEquivalence:
    """Direct and recycled tiers agree on objectives *and* adjoint gradients."""

    @staticmethod
    def _density(device):
        return np.clip(
            0.5 + 0.2 * np.random.default_rng(11).normal(size=device.design_shape), 0, 1
        )

    @staticmethod
    def _evaluate(device, density, engine):
        backend = NumericalFieldBackend(engine=engine)
        return evaluate_spec(
            device, density, device.specs[0], backend=backend, compute_gradient=True
        )

    @pytest.mark.parametrize("device_kwargs", GRID_SIZES)
    @pytest.mark.parametrize("engine_name", ["direct"])
    def test_forward_and_adjoint_consistency(self, engine_name, device_kwargs):
        from repro.devices.factory import make_device

        device = make_device("bending", **device_kwargs)
        density = self._density(device)
        reference = self._evaluate(
            device, density, DirectEngine(cache=FactorizationCache())
        )
        engine = make_engine(engine_name, cache=FactorizationCache())
        evaluation = self._evaluate(device, density, engine)

        assert evaluation.objective_value == pytest.approx(
            reference.objective_value, rel=1e-6
        )
        scale = np.max(np.abs(reference.grad_density))
        assert scale > 0
        np.testing.assert_allclose(
            evaluation.grad_density,
            reference.grad_density,
            rtol=1e-5,
            atol=1e-7 * scale,
        )

    @pytest.mark.parametrize("device_kwargs", GRID_SIZES)
    def test_transmissions_agree_across_engines(self, device_kwargs):
        from repro.devices.factory import make_device

        device = make_device("bending", **device_kwargs)
        density = self._density(device)
        exact = self._evaluate(device, density, DirectEngine(cache=FactorizationCache()))
        # A nearby design installs the reference LU, so the evaluation under
        # test runs the recycled (refinement) path, not a fresh factorization.
        engine = RecycledEngine(
            rtol=1e-12, cache=FactorizationCache(), design_region=device.geometry.design_slice
        )
        self._evaluate(device, np.clip(density + 0.01, 0, 1), engine)
        approx = self._evaluate(device, density, engine)
        assert engine.stats.recycled_solves > 0
        for port, value in exact.transmissions.items():
            assert approx.transmissions[port] == pytest.approx(value, abs=1e-8)


# --------------------------------------------------------------------------- #
# labels / generator batching equivalence
# --------------------------------------------------------------------------- #
class TestLabelBatching:
    def test_batch_matches_single_extraction(self):
        from repro.data.labels import extract_labels, extract_labels_batch
        from repro.devices.factory import make_device

        device = make_device("mdm", domain=3.5, design_size=1.6, dl=0.1)
        density = np.full(device.design_shape, 0.5)
        batch = extract_labels_batch(device, density, with_gradient=True)
        assert len(batch) == len(device.specs)
        for index, label in enumerate(batch):
            single = extract_labels(device, density, spec=index, with_gradient=True)
            assert label.spec_index == single.spec_index
            np.testing.assert_allclose(label.ez, single.ez, rtol=1e-10, atol=1e-18)
            np.testing.assert_allclose(
                label.adjoint_gradient, single.adjoint_gradient, rtol=1e-8, atol=1e-20
            )
            assert label.figure_of_merit == pytest.approx(single.figure_of_merit, rel=1e-10)


# --------------------------------------------------------------------------- #
# incremental operator assembly
# --------------------------------------------------------------------------- #
class TestIncrementalAssembly:
    """assemble_system_matrix's template path vs from-scratch sparse summation."""

    @staticmethod
    def _from_scratch(grid, omega, eps):
        import scipy.sparse as sp

        from repro.fdfd.engine import operators

        diagonal = omega**2 * constants.EPSILON_0 * np.asarray(eps).ravel()
        matrix = (operators(grid, omega)["curl_curl"] + sp.diags(diagonal)).tocsr()
        matrix.sort_indices()
        return matrix

    def test_bit_identical_to_from_scratch(self):
        from repro.fdfd.engine import assemble_system_matrix

        grid, eps, _ = _straight_waveguide()
        for scale in (1.0, 0.37, 2.5):
            incremental = assemble_system_matrix(grid, OMEGA, eps * scale)
            scratch = self._from_scratch(grid, OMEGA, eps * scale)
            assert np.array_equal(incremental.indptr, scratch.indptr)
            assert np.array_equal(incremental.indices, scratch.indices)
            assert np.array_equal(incremental.data, scratch.data)

    def test_repeated_assembly_is_independent(self):
        """Each call owns its data: assembling eps2 must not corrupt eps1's matrix."""
        from repro.fdfd.engine import assemble_system_matrix

        grid, eps, _ = _straight_waveguide()
        first = assemble_system_matrix(grid, OMEGA, eps)
        reference = first.data.copy()
        assemble_system_matrix(grid, OMEGA, eps + 1.5)
        assert np.array_equal(first.data, reference)

    def test_update_system_diagonal_in_place(self):
        from repro.fdfd.engine import assemble_system_matrix, update_system_diagonal

        grid, eps, _ = _straight_waveguide()
        matrix = assemble_system_matrix(grid, OMEGA, eps)
        updated = update_system_diagonal(matrix, grid, OMEGA, eps + 0.25)
        assert updated is matrix
        scratch = self._from_scratch(grid, OMEGA, eps + 0.25)
        assert np.array_equal(matrix.data, scratch.data)

    def test_shape_validation(self):
        from repro.fdfd.engine import assemble_system_matrix, update_system_diagonal

        grid, eps, _ = _straight_waveguide()
        with pytest.raises(ValueError):
            assemble_system_matrix(grid, OMEGA, eps[:-1])
        matrix = assemble_system_matrix(grid, OMEGA, eps)
        with pytest.raises(ValueError):
            update_system_diagonal(matrix, grid, OMEGA, eps[:, :-1])


# --------------------------------------------------------------------------- #
# operator cache
# --------------------------------------------------------------------------- #
class TestOperatorCache:
    def test_hit_reuses_entry_and_capacity_is_eight(self):
        from repro.fdfd.engine import operators

        grids = [Grid(nx=12 + i, ny=12, dl=0.1, npml=3) for i in range(9)]
        first = operators(grids[0], OMEGA)
        assert operators(grids[0], OMEGA) is first
        for grid in grids[1:]:  # eight newer grids push the first one out
            operators(grid, OMEGA)
        assert operators(grids[-1], OMEGA) is operators(grids[-1], OMEGA)
        assert operators(grids[0], OMEGA) is not first


# --------------------------------------------------------------------------- #
# warm-start workspace
# --------------------------------------------------------------------------- #
class TestSolveWorkspace:
    def test_store_and_guess(self):
        from repro.fdfd.engine import SolveWorkspace

        workspace = SolveWorkspace()
        assert workspace.guess("k") is None
        field = np.ones((3, 3), dtype=complex)
        workspace.store("k", field)
        np.testing.assert_array_equal(workspace.guess("k"), field)
        assert workspace.misses == 1 and workspace.hits == 1

    def test_secant_extrapolation(self):
        from repro.fdfd.engine import SolveWorkspace

        workspace = SolveWorkspace()
        workspace.store("k", np.full((2, 2), 1.0 + 0j))
        workspace.store("k", np.full((2, 2), 3.0 + 0j))
        np.testing.assert_allclose(workspace.guess("k"), np.full((2, 2), 5.0 + 0j))

    def test_shape_mismatch_returns_none(self):
        from repro.fdfd.engine import SolveWorkspace

        workspace = SolveWorkspace()
        workspace.store("k", np.ones((2, 2), dtype=complex))
        assert workspace.guess("k", shape=(3, 3)) is None

    def test_guess_stack_zero_fills_missing(self):
        from repro.fdfd.engine import SolveWorkspace

        workspace = SolveWorkspace()
        assert workspace.guess_stack(["a", "b"], (2, 2)) is None
        workspace.store("a", np.full((2, 2), 2.0 + 1j))
        stack = workspace.guess_stack(["a", "b"], (2, 2))
        assert stack.shape == (2, 2, 2)
        np.testing.assert_allclose(stack[0], np.full((2, 2), 2.0 + 1j))
        np.testing.assert_allclose(stack[1], 0.0)

    def test_invalidate_clears_everything(self):
        from repro.fdfd.engine import SolveWorkspace

        workspace = SolveWorkspace()
        workspace.store("a", np.ones((2, 2), dtype=complex))
        workspace.invalidate()
        assert len(workspace) == 0 and workspace.invalidations == 1
        assert workspace.guess("a") is None


# --------------------------------------------------------------------------- #
# recycled engine
# --------------------------------------------------------------------------- #
class TestRecycledEngine:
    def test_registered(self):
        from repro.fdfd.engine import RecycledEngine

        assert "recycled" in available_engines()
        engine = make_engine("recycled", design_region=_REGION)
        assert isinstance(engine, RecycledEngine)
        assert engine.supports_warm_start

    def test_invalid_parameters(self):
        from repro.fdfd.engine import RecycledEngine

        # One solve chain without a Krylov tier and one factor precision: no
        # method, precision or maxiter knob; the recycling policy is fixed.
        for knob in (
            dict(method="gmres"),
            dict(precision="fp32"),
            dict(maxiter=200),
            dict(max_sweeps=16),
            dict(drift_threshold=0.1),
            dict(max_krylov=6),
            dict(max_references=4),
        ):
            with pytest.raises(TypeError):
                RecycledEngine(design_region=_REGION, **knob)

    def test_exact_fingerprint_match_is_direct(self):
        grid, eps, ports = _straight_waveguide()
        rhs = np.stack(_region_sources(grid, 2))
        engine = _region_recycled()
        exact = DirectEngine(cache=FactorizationCache()).solve_batch(grid, OMEGA, eps, rhs)
        first = engine.solve_batch(grid, OMEGA, eps, rhs, port_rows=_rows(grid, ports))
        second = engine.solve_batch(grid, OMEGA, eps, rhs, port_rows=_rows(grid, ports))
        assert engine.stats.factorizations == 1
        assert engine.stats.exact_solves == 1
        np.testing.assert_allclose(first, exact, rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(second, exact, rtol=1e-12, atol=1e-18)

    def test_recycled_solve_matches_direct_on_nearby_eps(self):
        grid, eps, ports = _straight_waveguide()
        rhs = np.stack(_region_sources(grid, 2))
        engine = _region_recycled()
        engine.solve_batch(grid, OMEGA, eps, rhs, port_rows=_rows(grid, ports))  # the reference
        perturbed = _in_region(eps, 0.01 * np.random.default_rng(0).random(eps.shape))
        recycled = engine.solve_batch(grid, OMEGA, perturbed, rhs, port_rows=_rows(grid, ports))
        assert engine.stats.recycled_solves == 1
        assert engine.stats.factorizations == 1  # no refactorization
        exact = DirectEngine(cache=FactorizationCache()).solve_batch(
            grid, OMEGA, perturbed, rhs
        )
        scale = np.max(np.abs(exact))
        np.testing.assert_allclose(recycled, exact, atol=2e-6 * scale)

    def test_large_drift_triggers_refactorization(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_DRIFT_THRESHOLD", 0.01)
        grid, eps, ports = _straight_waveguide()
        rhs = np.stack(_region_sources(grid, 1))
        engine = _region_recycled()
        engine.solve_batch(grid, OMEGA, eps, rhs, port_rows=_rows(grid, ports))
        far = _in_region(eps, 3.0)  # relative drift far above the threshold
        result = engine.solve_batch(grid, OMEGA, far, rhs, port_rows=_rows(grid, ports))
        assert engine.stats.factorizations == 2
        assert engine.stats.recycled_solves == 0
        exact = DirectEngine(cache=FactorizationCache()).solve_batch(grid, OMEGA, far, rhs)
        np.testing.assert_allclose(result, exact, rtol=1e-12, atol=1e-18)

    def test_reference_lru_is_bounded(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_DRIFT_THRESHOLD", 1e-9)
        monkeypatch.setattr(engine_module, "_MAX_REFERENCES", 2)
        grid, eps, ports = _straight_waveguide()
        rhs = np.stack(_region_sources(grid, 1))
        engine = _region_recycled()
        for shift in (0.0, 1.0, 2.0, 3.0):
            shifted = _in_region(eps, shift)
            engine.solve_batch(grid, OMEGA, shifted, rhs, port_rows=_rows(grid, ports))
        (references,) = engine._references.values()
        assert len(references) == 2

    def test_references_own_their_lus(self):
        """Past the reference bound, each kept reference holds its own LU and the
        shared cache holds nothing but the exterior."""
        grid, eps, ports = _straight_waveguide()
        rhs = np.stack(_region_sources(grid, 1))
        engine = _region_recycled()
        kept = engine_module._MAX_REFERENCES
        # Steps of 3.0 on the region drift 0.22 relative, past the threshold.
        designs = [_in_region(eps, 3.0 * step) for step in range(kept + 2)]
        for design in designs:
            engine.solve_batch(grid, OMEGA, design, rhs, port_rows=_rows(grid, ports))
        assert engine.stats.factorizations == len(designs)
        assert engine.stats.fallbacks == 0
        (references,) = engine._references.values()
        assert len(references) == kept
        lus = [reference.lu for reference in references.values()]
        assert len({id(lu) for lu in lus}) == kept
        assert {key[3] for key in engine.cache.keys()} == {"exterior"}
        # Each kept reference's LU serves its design exactly; the dropped ones
        # left with their LUs and refactorize.
        for design in designs[-kept:]:
            engine.solve_batch(grid, OMEGA, design, rhs, port_rows=_rows(grid, ports))
        assert engine.stats.exact_solves == kept
        assert engine.stats.factorizations == len(designs)
        engine.solve_batch(grid, OMEGA, designs[0], rhs, port_rows=_rows(grid, ports))
        assert engine.stats.factorizations == len(designs) + 1

    def test_failed_recycle_falls_back_to_refactorization(self, monkeypatch):
        # A huge drift threshold forces the recycle attempt even for a big
        # perturbation; a one-sweep budget makes it fail.
        monkeypatch.setattr(engine_module, "_DRIFT_THRESHOLD", 100.0)
        monkeypatch.setattr(engine_module, "_MAX_SWEEPS", 1)
        monkeypatch.setattr(engine_module, "_MAX_REFERENCE_SWEEPS", 10**6)
        grid, eps, ports = _straight_waveguide()
        rhs = np.stack(_region_sources(grid, 1))
        engine = _region_recycled()
        engine.solve_batch(grid, OMEGA, eps, rhs, port_rows=_rows(grid, ports))
        hard = _in_region(eps, 5.0 * np.random.default_rng(1).random(eps.shape))
        result = engine.solve_batch(grid, OMEGA, hard, rhs, port_rows=_rows(grid, ports))
        assert engine.stats.fallbacks == 1
        assert engine.stats.factorizations == 2
        exact = DirectEngine(cache=FactorizationCache()).solve_batch(grid, OMEGA, hard, rhs)
        np.testing.assert_allclose(result, exact, rtol=1e-12, atol=1e-18)

    def test_non_contracting_refinement_escalates(self, monkeypatch):
        """A refinement stall is caught and escalated to a refactorization, never propagated."""
        stalls = []

        def spy(*args, **kwargs):
            try:
                return iterative_refine(*args, **kwargs)
            except RefinementError as err:
                stalls.append(err)
                raise

        monkeypatch.setattr(engine_module, "iterative_refine", spy)
        grid, eps, ports = _straight_waveguide()
        rhs = np.stack(_region_sources(grid, 1))
        monkeypatch.setattr(engine_module, "_DRIFT_THRESHOLD", 100.0)
        monkeypatch.setattr(engine_module, "_MAX_REFERENCE_SWEEPS", 10**6)
        engine = _region_recycled()
        engine.solve_batch(grid, OMEGA, eps, rhs, port_rows=_rows(grid, ports))
        before = (engine.stats.fallbacks, engine.stats.factorizations)
        # Far outside the reference LU's contraction radius.
        hard = _in_region(eps, 5.0 * np.random.default_rng(1).random(eps.shape))
        result = engine.solve_batch(grid, OMEGA, hard, rhs, port_rows=_rows(grid, ports))
        assert stalls
        after = (engine.stats.fallbacks, engine.stats.factorizations)
        assert after == (before[0] + 1, before[1] + 1)
        assert engine.stats.recycled_solves == 0
        exact = DirectEngine(cache=FactorizationCache()).solve_batch(grid, OMEGA, hard, rhs)
        np.testing.assert_allclose(result, exact, rtol=1e-12, atol=1e-18)

    def test_warm_start_does_not_change_solution(self):
        grid, eps, ports = _straight_waveguide()
        rhs = np.stack(_region_sources(grid, 1))
        perturbed = _in_region(eps, 0.02)
        cold = _region_recycled()
        cold.solve_batch(grid, OMEGA, eps, rhs, port_rows=_rows(grid, ports))
        cold_result = np.asarray(
            cold.solve_batch(grid, OMEGA, perturbed, rhs, port_rows=_rows(grid, ports))
        )
        warm = _region_recycled()
        warm.solve_batch(grid, OMEGA, eps, rhs, port_rows=_rows(grid, ports))
        guess = cold_result * (1.0 + 1e-3 * np.random.default_rng(2).random(rhs.shape))
        warm_result = warm.solve_batch(
            grid, OMEGA, perturbed, rhs, x0=guess, port_rows=_rows(grid, ports)
        )
        scale = np.max(np.abs(cold_result))
        np.testing.assert_allclose(warm_result, cold_result, atol=5e-6 * scale)


class TestRecycledTrajectoryEquivalence:
    """Forward + adjoint equivalence vs direct across a multi-step eps walk."""

    def test_matches_direct_along_trajectory(self, tiny_bend):
        from repro.fdfd.engine import RecycledEngine

        rng = np.random.default_rng(3)
        density = np.clip(
            0.5 + 0.2 * rng.normal(size=tiny_bend.design_shape), 0, 1
        )
        engine = RecycledEngine(
            cache=FactorizationCache(), design_region=tiny_bend.geometry.design_slice
        )
        backend = NumericalFieldBackend(engine=engine)
        for step in range(5):
            reference = evaluate_spec(
                tiny_bend, density, tiny_bend.specs[0],
                backend=NumericalFieldBackend(engine=DirectEngine(cache=FactorizationCache())),
                compute_gradient=True,
            )
            recycled = evaluate_spec(
                tiny_bend, density, tiny_bend.specs[0],
                backend=backend, compute_gradient=True,
            )
            assert recycled.objective_value == pytest.approx(
                reference.objective_value, rel=1e-5
            )
            scale = np.max(np.abs(reference.grad_density))
            assert scale > 0
            np.testing.assert_allclose(
                recycled.grad_density, reference.grad_density,
                rtol=1e-5, atol=1e-5 * scale,
            )
            # Adam-step-sized walk through design space.
            density = np.clip(density + 0.02 * rng.normal(size=density.shape), 0, 1)
        # The walk recycled factorizations rather than rebuilding one per step.
        assert engine.stats.recycled_solves > 0
        assert engine.stats.factorizations < 5


# --------------------------------------------------------------------------- #
# permittivity replacement evicts every engine tag (regression)
# --------------------------------------------------------------------------- #
class TestSetPermittivityEviction:
    def test_all_tags_evicted_for_old_fingerprint(self):
        grid, eps, ports = _straight_waveguide()
        cache = FactorizationCache(maxsize=8)
        sim = Simulation(grid, eps, 1.55, ports, engine=DirectEngine(cache=cache))
        old_fingerprint = sim._eps_fingerprint
        # Factorizations of the current design under several engine tags, as
        # left behind by direct / condensed / recycled runs of the same design.
        for tag in ("direct", "condensed", "recycled"):
            cache.get_or_build(
                grid, sim.omega, old_fingerprint, lambda tag=tag: f"{tag}-entry", tag=tag
            )
        sim.set_permittivity(eps + 0.5)
        for tag in ("direct", "condensed", "recycled"):
            assert cache.peek(grid, sim.omega, old_fingerprint, tag=tag) is None


class TestFidelitySignature:
    """Result caches key on the signature: equal physics may share, others not."""

    def test_exact_engines_share(self):
        assert DirectEngine().fidelity_signature == DirectEngine().fidelity_signature

    def test_recycled_signature_tracks_parameters(self):
        a = _region_recycled(rtol=1e-8)
        b = _region_recycled(rtol=1e-8)
        c = _region_recycled(rtol=1e-3)
        assert a.fidelity_signature == b.fidelity_signature
        assert a.fidelity_signature != c.fidelity_signature
        # rtol-converged solves never share results with exact ones.
        assert a.fidelity_signature != DirectEngine().fidelity_signature

    def test_default_signature_is_per_instance(self):
        class OpaqueEngine(SolverEngine):
            name = "opaque"

        a, b = OpaqueEngine(), OpaqueEngine()
        assert a.fidelity_signature != b.fidelity_signature
        assert a.fidelity_signature == a.fidelity_signature  # stable per instance
