"""Condensed solves: the design-region Schur complement paths of the engines.

A ``DirectEngine`` given a device's design region factors the fixed exterior
once and each design's condensed operator on the region.  These tests pin
that the condensed factor solves the same systems as the full LU (every zoo
device, two grids, forward and adjoint right-hand sides, Kerr fixed points),
that operators outside its rule (exterior changed, store attached) are
factored in full, and that label extraction actually takes the path.

A ``RecycledEngine`` given the region recycles on the Schur complement from
an exterior's second sighting on.  Its tests pin the full-system residual of
every path (reference hit, refinement, BiCGStab, refactorization), exterior
residency in the cache, the one-off rule, the store fallback and the
optimization loop's FoM history against exact solves.
"""

import numpy as np
import pytest

from repro.constants import wavelength_to_omega
from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.data.labels import extract_labels_batch
from repro.devices.factory import available_devices, make_device
from repro.fabrication.drift import TemperatureDrift
import repro.fdfd.engine as engine_module
from repro.fdfd.engine import (
    DirectEngine,
    FactorizationCache,
    RecycledEngine,
    RefinementError,
    SolveWorkspace,
    assemble_system_matrix,
    default_factorization_cache,
    eps_fingerprint,
    factor_lu,
    selects_direct,
    selects_recycled,
)
from repro.fdfd.lazy import Deferred
from repro.fdfd.monitors import port_rows
from repro.fdfd.nonlinear import KerrNonlinearity
import repro.fdfd.simulation as simulation_module
from repro.fdfd.simulation import Simulation, clear_result_cache, normalization_geometry
from repro.invdes import AdjointOptimizer, InverseDesignProblem, RobustInverseDesignProblem
from repro.invdes.adjoint import NumericalFieldBackend, Sweep, evaluate_specs
from repro.invdes.objectives import Objective, objective_for_spec
from repro.service.cache_store import FileFactorizationStore

DEVICE_SIZE = dict(domain=3.0, design_size=1.4)
PARITY_CASES = [(name, dl) for name in available_devices() for dl in (0.1, 0.08)]


def _region_engine(device, cache=None) -> DirectEngine:
    geometry = device.geometry
    return DirectEngine(
        cache=cache if cache is not None else FactorizationCache(),
        design_region=geometry.design_slice,
        exterior_eps=geometry.eps_background,
    )


def _tags(cache) -> set[str]:
    return {key[3] for key in cache.keys()}


def _relative(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize(
    "name,dl", PARITY_CASES, ids=[f"{name}-dl{dl:.2f}" for name, dl in PARITY_CASES]
)
def test_condensed_factor_matches_full_lu(name, dl):
    device = make_device(name, dl=dl, **DEVICE_SIZE)
    grid = device.grid
    density = np.random.default_rng(11).uniform(0.0, 1.0, device.design_shape)
    eps = device.eps_with_design(density)
    engine = _region_engine(device)
    for spec in device.specs:
        omega = wavelength_to_omega(spec.wavelength)
        condensed = engine.factorize(grid, omega, eps)
        assert engine.cache.peek(grid, omega, eps_fingerprint(eps), tag="condensed") is condensed
        full = factor_lu(assemble_system_matrix(grid, omega, eps))

        sim = Simulation(grid, eps, spec.wavelength, device.geometry.ports)
        forward = 1j * omega * sim.mode_source(spec.source_port, spec.source_mode).ravel()
        field = full.solve(forward)
        # Adjoint sources live on the monitor planes, conj(E)-shaped.
        adjoint = np.zeros(grid.shape, dtype=complex)
        for port in device.geometry.ports:
            if port.name in spec.port_weights:
                index = port.indices(grid)
                adjoint[index] = np.conj(field.reshape(grid.shape)[index])
        adjoint = adjoint.ravel()

        assert _relative(condensed.solve(forward), field) <= 1e-10
        assert _relative(condensed.solve(adjoint), full.solve(adjoint)) <= 1e-10
        stack = np.stack([forward, adjoint], axis=1)
        assert _relative(condensed.solve(stack), full.solve(stack)) <= 1e-10


@pytest.mark.parametrize("name,dl", [("bending", 0.05), ("wdm", 0.08)])
def test_ring_last_factor_matches_back_substitutions(name, dl, monkeypatch):
    """The Schur template read off the ring-last factor equals the k-solve one."""
    device = make_device(name, dl=dl, **DEVICE_SIZE)
    eps = device.eps_with_design(np.random.default_rng(4).uniform(0, 1, device.design_shape))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    region = device.geometry.design_slice
    fast = engine_module._Exterior(device.grid, omega, eps, region)
    splu = engine_module.spla.splu
    natural = []

    def no_natural_order(matrix, **kwargs):
        if kwargs.get("permc_spec") == "NATURAL":
            natural.append(matrix.shape)
            raise RuntimeError("Factor is exactly singular")
        return splu(matrix, **kwargs)

    monkeypatch.setattr(engine_module.spla, "splu", no_natural_order)
    slow = engine_module._Exterior(device.grid, omega, eps, region)
    assert natural == [fast.lu.shape]
    assert _relative(fast.schur.toarray(), slow.schur.toarray()) <= 1e-12


@pytest.mark.parametrize("name", ["kerr_switch", "kerr_limiter"])
def test_kerr_labels_through_condensed_inner_solves(name, monkeypatch):
    """Kerr fixed points converge to the same labels on either factor."""
    device = make_device(name, dl=0.1, **DEVICE_SIZE)
    density = np.random.default_rng(5).uniform(0.2, 0.8, device.design_shape)
    nonlinearity = KerrNonlinearity(rtol=1e-10)
    full = extract_labels_batch(
        device, density, engine=DirectEngine(cache=FactorizationCache()), sweep=Sweep(nonlinearity=nonlinearity)
    )
    # Engines built by name resolve the module-level default cache at
    # construction; a fresh one shows which path the labels took.
    cache = FactorizationCache()
    monkeypatch.setattr("repro.fdfd.engine.default_factorization_cache", cache)
    condensed = extract_labels_batch(
        device, density, engine="direct", sweep=Sweep(nonlinearity=nonlinearity)
    )
    assert "condensed" in _tags(cache)
    assert len(condensed) == len(full) == len(device.specs)
    for got, want in zip(condensed, full):
        assert _relative(got.ez, want.ez) < 1e-8
        scale = max(np.abs(want.adjoint_gradient).max(), 1e-30)
        np.testing.assert_allclose(got.adjoint_gradient, want.adjoint_gradient, atol=1e-6 * scale)
        for port, value in want.transmissions.items():
            assert got.transmissions[port] == pytest.approx(value, abs=1e-8)


class TestFallbacks:
    @staticmethod
    def _temperature_drift(device, eps):
        return TemperatureDrift(30.0).apply_eps(eps)

    @staticmethod
    def _normalization_guide(device, eps):
        port = next(p for p in device.geometry.ports if p.name == device.specs[0].source_port)
        guide, _ = normalization_geometry(device.grid, port, eps[port.indices(device.grid)])
        return guide

    @pytest.mark.parametrize("variant", ["_temperature_drift", "_normalization_guide"])
    def test_changed_exterior_is_factored_in_full(self, variant):
        device = make_device("bending", dl=0.1, **DEVICE_SIZE)
        engine = _region_engine(device)
        density = np.random.default_rng(2).uniform(0.0, 1.0, device.design_shape)
        eps = getattr(self, variant)(device, device.eps_with_design(density))
        omega = wavelength_to_omega(device.specs[0].wavelength)
        engine.factorize(device.grid, omega, eps)
        fingerprint = eps_fingerprint(eps)
        assert engine.cache.peek(device.grid, omega, fingerprint, tag="condensed") is None
        assert engine.cache.peek(device.grid, omega, fingerprint, tag="direct") is not None
        assert _tags(engine.cache) == {"direct"}

    def test_store_runs_publish_only_full_operators(self, tmp_path):
        store_dir = tmp_path / "store"
        config = GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=2,
            with_gradient=True,
            seed=4,
            device_kwargs=dict(dl=0.1, **DEVICE_SIZE),
            factorization_store=str(store_dir),
        )
        dataset = DatasetGenerator(config).generate()
        artifacts = sorted(path.name for path in store_dir.glob("*.fact"))
        assert artifacts and all(name.startswith("direct-") for name in artifacts)
        store = FileFactorizationStore(store_dir)
        device = make_device("bending", dl=0.1, **DEVICE_SIZE)
        for sample in dataset.samples:
            omega = wavelength_to_omega(sample.wavelength)
            entry = store.load(device.grid, omega, eps_fingerprint(sample.eps_r), "direct")
            assert entry is not None
            rhs = np.ones(device.grid.n_points, dtype=complex)
            matrix = assemble_system_matrix(device.grid, omega, sample.eps_r)
            assert np.linalg.norm(matrix @ entry.solve(rhs) - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_engine_instances_and_other_tiers_are_used_as_given(self):
        assert selects_direct(None) and selects_direct("direct") and selects_direct("HIGH")
        assert selects_direct("superlu")
        assert not selects_direct("recycled")
        assert not selects_direct(DirectEngine())

    def test_region_and_exterior_go_together(self):
        device = make_device("bending", dl=0.1, **DEVICE_SIZE)
        with pytest.raises(ValueError, match="together"):
            DirectEngine(design_region=device.geometry.design_slice)


def test_serial_generation_takes_the_condensed_path():
    """The datasets_bit_identical generation tests run through condensed factors."""
    default_factorization_cache.clear()
    config = GeneratorConfig(
        device_name="bending",
        strategy="random",
        num_designs=4,
        with_gradient=False,
        seed=3,
        device_kwargs=dict(dl=0.1, **DEVICE_SIZE),
        shard_size=2,
    )
    dataset = DatasetGenerator(config).generate()
    assert {"condensed", "exterior"} <= _tags(default_factorization_cache)
    last = dataset.samples[-1]
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    omega = wavelength_to_omega(last.wavelength)
    fingerprint = eps_fingerprint(last.eps_r)
    assert default_factorization_cache.peek(device.grid, omega, fingerprint, tag="condensed")
    assert default_factorization_cache.peek(device.grid, omega, fingerprint, tag="direct") is None


def test_cache_size_env_var_is_named_in_the_error(monkeypatch):
    for raw in ("0", "-3", "eight"):
        monkeypatch.setenv("REPRO_FACTORIZATION_CACHE_SIZE", raw)
        with pytest.raises(ValueError, match=f"REPRO_FACTORIZATION_CACHE_SIZE={raw!r}"):
            FactorizationCache()


# --------------------------------------------------------------------------- #
# recycling on the Schur complement
# --------------------------------------------------------------------------- #
def _region_recycled(device, cache=None, **kwargs) -> RecycledEngine:
    return RecycledEngine(
        cache=cache if cache is not None else FactorizationCache(),
        design_region=device.geometry.design_slice,
        **kwargs,
    )


def _drifted(device, density, rng, scale):
    return device.eps_with_design(np.clip(density + scale * rng.normal(size=density.shape), 0, 1))


def _assert_full_residual(grid, omega, eps, rhs, solution, rtol):
    """``||A x - b|| <= rtol ||b||`` per right-hand side, with the assembled ``A``."""
    matrix = assemble_system_matrix(grid, omega, eps)
    for b, x in zip(rhs.reshape(rhs.shape[0], -1), solution.reshape(rhs.shape[0], -1)):
        residual = np.linalg.norm(matrix @ x - b)
        assert residual <= rtol * np.linalg.norm(b) * (1 + 1e-9)


@pytest.mark.parametrize(
    "name,dl", PARITY_CASES, ids=[f"{name}-dl{dl:.2f}" for name, dl in PARITY_CASES]
)
def test_condensed_recycling_meets_the_full_residual(name, dl, monkeypatch):
    """Every path of a region solve converges on the full system, not just on ``S``."""
    device = make_device(name, dl=dl, **DEVICE_SIZE)
    grid = device.grid
    rng = np.random.default_rng(7)
    density = rng.uniform(0.0, 1.0, device.design_shape)
    eps = device.eps_with_design(density)
    spec = device.specs[0]
    omega = wavelength_to_omega(spec.wavelength)
    sim = Simulation(grid, eps, spec.wavelength, device.geometry.ports)
    forward = 1j * omega * sim.mode_source(spec.source_port, spec.source_mode)
    noise = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    rhs = np.stack([forward, noise * np.abs(forward).max()])
    engine = _region_recycled(device)
    stats = engine.stats

    def solve(eps_r, counter):
        before = getattr(stats, counter)
        solution = engine.solve_batch(grid, omega, eps_r, rhs)
        assert getattr(stats, counter) == before + 1, counter
        _assert_full_residual(grid, omega, eps_r, rhs, solution, engine.rtol)
        return solution

    solve(eps, "factorizations")  # first sighting: full grid, nothing kept
    assert _tags(engine.cache) == set()
    solve(eps, "factorizations")  # second sighting: a reference on S
    assert _tags(engine.cache) == {"exterior", "recycled_schur"}
    solve(eps, "exact_solves")
    solve(_drifted(device, density, rng, 0.01), "recycled_solves")

    def no_refinement(*args, **kwargs):
        raise RefinementError("forced")

    monkeypatch.setattr(engine_module, "iterative_refine", no_refinement)
    krylov = stats.krylov_iterations
    solve(_drifted(device, density, rng, 0.01), "recycled_solves")
    assert stats.krylov_iterations > krylov
    monkeypatch.undo()

    far = device.eps_with_design(rng.uniform(0.0, 1.0, device.design_shape))
    solve(far, "factorizations")  # drift beyond the threshold
    assert stats.fallbacks == 0
    keys = engine.cache.keys()
    assert [key[3] for key in keys].count("exterior") == 1
    assert all(key[3] in ("exterior", "recycled_schur") for key in keys)


class _CountingExterior(engine_module._Exterior):
    built: list = []

    def __init__(self, grid, omega, eps_r, region, ports=None):
        super().__init__(grid, omega, eps_r, region, ports)
        outside = np.ones(grid.shape, dtype=bool)
        outside[region] = False
        self.built.append((float(omega), eps_r[outside].copy()))


@pytest.fixture
def counting_exteriors(monkeypatch):
    """Record every exterior built, in a fresh default cache."""
    monkeypatch.setattr(engine_module, "_Exterior", _CountingExterior)
    monkeypatch.setattr(_CountingExterior, "built", [])
    monkeypatch.setattr(engine_module, "default_factorization_cache", FactorizationCache())
    return _CountingExterior.built


class TestExteriorResidency:
    def test_exteriors_survive_churn_under_other_tags(self):
        cache = FactorizationCache(maxsize=2)
        grid = make_device("bending", dl=0.1, **DEVICE_SIZE).grid
        for index in range(2):
            cache.get_or_build(grid, 1.0, f"outer{index}", lambda: object(), tag="exterior")
        tags = ("direct", "condensed", "recycled", "recycled_schur")
        for index in range(3 * cache.maxsize):
            cache.get_or_build(grid, 1.0, f"fp{index}", lambda: object(), tag=tags[index % 4])
        assert cache.stats.evictions == 3 * cache.maxsize - cache.maxsize

        def unexpected_build():
            raise AssertionError("a resident exterior was rebuilt")

        hits = cache.stats.hits
        for index in range(2):
            cache.get_or_build(grid, 1.0, f"outer{index}", unexpected_build, tag="exterior")
        assert cache.stats.hits == hits + 2
        # A third exterior evicts the least recently used exterior only.
        cache.get_or_build(grid, 1.0, "outer2", lambda: object(), tag="exterior")
        assert cache.peek(grid, 1.0, "outer0", tag="exterior") is None
        assert len(cache) == 2 * cache.maxsize

    def test_robust_corners_build_three_exteriors(self, counting_exteriors):
        device = make_device("bending", dl=0.1, **DEVICE_SIZE)
        problem = RobustInverseDesignProblem(InverseDesignProblem(device, engine="recycled"))
        optimizer = AdjointOptimizer(problem, learning_rate=0.2)
        optimizer.run(problem.initial_theta("waveguide"), iterations=3)
        # Nominal, the wavelength-shifted omega and the temperature corner;
        # the fabrication corners share the nominal exterior.
        assert len(counting_exteriors) == 3
        assert len({omega for omega, _ in counting_exteriors}) == 2
        engine = problem.base_problem.backend.engine
        assert [key[3] for key in engine.cache.keys()].count("exterior") == 3


def test_normalization_guide_never_builds_an_exterior(counting_exteriors):
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    problem = InverseDesignProblem(device, engine="recycled")
    AdjointOptimizer(problem, learning_rate=0.2).run(
        problem.initial_theta("waveguide"), iterations=3
    )
    outside = np.ones(device.grid.shape, dtype=bool)
    outside[device.geometry.design_slice] = False
    assert len(counting_exteriors) == 1
    _, exterior = counting_exteriors[0]
    np.testing.assert_array_equal(exterior, device.geometry.eps_background[outside])


def test_store_keeps_the_recycled_engine_on_the_full_grid(tmp_path):
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    cache = FactorizationCache(store=FileFactorizationStore(tmp_path / "store"))
    engine = _region_recycled(device, cache=cache)
    rng = np.random.default_rng(3)
    density = rng.uniform(0.0, 1.0, device.design_shape)
    omega = wavelength_to_omega(device.specs[0].wavelength)
    rhs = np.ones((1, *device.grid.shape), dtype=complex)
    for scale in (0.0, 0.01, 0.02):
        eps = _drifted(device, density, rng, scale)
        solution = engine.solve_batch(device.grid, omega, eps, rhs)
        _assert_full_residual(device.grid, omega, eps, rhs, solution, engine.rtol)
    assert _tags(cache) == {"recycled"}
    assert engine.stats.recycled_solves == 2
    artifacts = [path.name for path in (tmp_path / "store").glob("*.fact")]
    assert artifacts and all(name.startswith("recycled-") for name in artifacts)


def test_problem_gives_the_named_recycled_tier_the_design_region(tiny_bend):
    assert selects_recycled("recycled") and selects_recycled(" Recycled ")
    assert not selects_recycled(None) and not selects_recycled("direct")
    named = InverseDesignProblem(tiny_bend, engine="recycled").backend.engine
    assert named.design_region == tiny_bend.geometry.design_slice
    instance = RecycledEngine(cache=FactorizationCache())
    assert InverseDesignProblem(tiny_bend, engine=instance).backend.engine is instance
    assert instance.design_region is None


def test_quickstart_loop_foms_match_exact_solves():
    """The quickstart loop at the perfbench scale: FoM histories agree to 1e-6."""
    device = make_device("bending", fidelity="high", domain=3.5, design_size=1.8)
    engines = {
        "direct": DirectEngine(cache=FactorizationCache()),
        "full_grid": RecycledEngine(cache=FactorizationCache()),
        "region": "recycled",
    }
    foms = {}
    for label, engine in engines.items():
        problem = InverseDesignProblem(device, engine=engine)
        optimizer = AdjointOptimizer(
            problem, learning_rate=0.2, beta_schedule={0: 4.0, 10: 8.0, 20: 16.0}
        )
        foms[label] = np.asarray(
            optimizer.run(problem.initial_theta("waveguide"), iterations=20).foms
        )
        if label == "region":
            assert "recycled_schur" in _tags(problem.backend.engine.cache)
    assert np.max(np.abs(foms["region"] - foms["direct"])) <= 1e-6
    assert np.max(np.abs(foms["region"] - foms["full_grid"])) <= 1e-6


# --------------------------------------------------------------------------- #
# port-reduced solves: the optimization loop never touches the exterior
# --------------------------------------------------------------------------- #
class _CountingLU:
    """A SuperLU stand-in that logs every back-substitution."""

    def __init__(self, lu, log):
        self._lu = lu
        self._log = log

    def solve(self, b):
        self._log.append(np.shape(b))
        return self._lu.solve(b)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SolveCountingExterior(engine_module._Exterior):
    solves: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.lu = _CountingLU(self.lu, self.solves)


@pytest.fixture
def exterior_solves(monkeypatch):
    """Log every back-substitution through an exterior, in a fresh default cache."""
    monkeypatch.setattr(engine_module, "_Exterior", _SolveCountingExterior)
    monkeypatch.setattr(_SolveCountingExterior, "solves", [])
    monkeypatch.setattr(engine_module, "default_factorization_cache", FactorizationCache())
    return _SolveCountingExterior.solves


def _relative_scalar(got, want) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


@pytest.mark.parametrize("kind", ["mode", "flux"])
@pytest.mark.parametrize(
    "name,dl", PARITY_CASES, ids=[f"{name}-dl{dl:.2f}" for name, dl in PARITY_CASES]
)
def test_port_solves_match_full_lu(name, dl, kind):
    """Objectives and gradients from port solves equal full LU, on exact hits and refactorizations."""
    device = make_device(name, dl=dl, **DEVICE_SIZE)
    rng = np.random.default_rng(13)
    near = rng.uniform(0.2, 0.8, device.design_shape)
    far = rng.uniform(0.0, 1.0, device.design_shape)
    objectives = {i: objective_for_spec(spec, kind) for i, spec in enumerate(device.specs)}
    # Every new design refactorizes; the first evaluation builds the exterior.
    # A workspace keeps the forward results out of the result cache, as in a loop.
    engine = _region_recycled(device, drift_threshold=0.0)
    port = NumericalFieldBackend(engine, workspace=SolveWorkspace())
    exact = NumericalFieldBackend(DirectEngine(cache=FactorizationCache()))
    evaluate_specs(device, near, backend=port, objectives=objectives)
    for density, path in ((near, "exact_solves"), (far, "factorizations")):
        before = getattr(engine.stats, path)
        got = evaluate_specs(device, density, backend=port, objectives=objectives)
        assert getattr(engine.stats, path) > before, path
        want = evaluate_specs(device, density, backend=exact, objectives=objectives)
        for g, w in zip(got, want):
            assert isinstance(vars(g.result)["ez"], Deferred)
            assert isinstance(vars(g)["adjoint_field"], Deferred)
            assert _relative_scalar(g.objective_value, w.objective_value) <= 1e-10
            assert _relative(g.grad_density, w.grad_density) <= 1e-10


@pytest.mark.parametrize("name,dl", [("bending", 0.05), ("wdm", 0.08)])
def test_port_block_matches_back_substitutions(name, dl, monkeypatch):
    """The port block read off the tail factor equals columns of ``A_EE^{-1}``."""
    device = make_device(name, dl=dl, **DEVICE_SIZE)
    eps = device.eps_with_design(np.random.default_rng(4).uniform(0, 1, device.design_shape))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    region = device.geometry.design_slice
    ports = port_rows(tuple(device.geometry.ports), device.grid)
    fast = engine_module._Exterior(device.grid, omega, eps, region, ports)
    splu = engine_module.spla.splu

    def no_natural_order(matrix, **kwargs):
        if kwargs.get("permc_spec") == "NATURAL":
            raise RuntimeError("Factor is exactly singular")
        return splu(matrix, **kwargs)

    monkeypatch.setattr(engine_module.spla, "splu", no_natural_order)
    slow = engine_module._Exterior(device.grid, omega, eps, region, ports)
    assert _relative(fast.schur.toarray(), slow.schur.toarray()) <= 1e-12
    for block in ("_w_rp", "_w_pp", "_w_pr"):
        assert _relative(getattr(fast, block), getattr(slow, block)) <= 1e-12, block
    # The port-to-port block against explicit back-substitutions.
    positions = np.searchsorted(fast.exterior, fast.ports)
    unit = np.zeros((fast.exterior.size, positions.size), dtype=complex)
    unit[positions, np.arange(positions.size)] = 1.0
    assert _relative(fast._w_pp, fast.lu.solve(unit)[positions]) <= 1e-12


def test_the_loop_stops_solving_through_the_exterior(exterior_solves):
    """After two iterations of the quickstart-size loop, no exterior back-substitution runs."""
    device = make_device("bending", fidelity="high", domain=3.5, design_size=1.8)
    problem = InverseDesignProblem(device, engine="recycled")
    optimizer = AdjointOptimizer(
        problem, learning_rate=0.2, beta_schedule={0: 4.0, 10: 8.0, 20: 16.0}
    )
    counts = []
    optimizer.run(
        problem.initial_theta("waveguide"),
        iterations=25,
        callback=lambda iteration, evaluation: counts.append(len(exterior_solves)),
    )
    assert counts[1] == len(exterior_solves)
    assert problem.backend.engine.stats.recycled_solves > 0


def _port_loop(device, engine, workspace=None, evaluations=3):
    """Evaluate one design like a loop does (with a workspace); returns the last evaluations."""
    workspace = workspace if workspace is not None else SolveWorkspace()
    backend = NumericalFieldBackend(engine, workspace=workspace)
    density = np.random.default_rng(8).uniform(0.2, 0.8, device.design_shape)
    for _ in range(evaluations):
        result = evaluate_specs(device, density, backend=backend)
    return density, result


def test_full_fields_recover_once_and_exactly(exterior_solves):
    """Reading a field recovers its whole batch with one back-substitution, once, exactly."""
    device = make_device("mdm", dl=0.1, **DEVICE_SIZE)
    engine = _region_recycled(device)
    density, evaluations = _port_loop(device, engine)
    assert len(evaluations) == 2  # both modes share one forward and one adjoint batch
    grid = device.grid
    eps = device.eps_with_design(density)
    sim = Simulation(grid, eps, evaluations[0].spec.wavelength, device.geometry.ports)
    omega = sim.omega
    adjoint_sources = [
        objective_for_spec(e.spec).value_and_adjoint_source(sim, e.result)[1] for e in evaluations
    ]
    solves = len(exterior_solves)
    for expected, attribute in ((solves + 1, "result"), (solves + 2, "adjoint_field")):
        for evaluation in evaluations:
            holder = evaluation.result if attribute == "result" else evaluation
            name = "ez" if attribute == "result" else "adjoint_field"
            assert isinstance(vars(holder)[name], Deferred)
            field = getattr(holder, name)
            assert getattr(holder, name) is field
            assert len(exterior_solves) == expected
    for evaluation, adjoint_source in zip(evaluations, adjoint_sources):
        result = evaluation.result
        want_hx, want_hy = sim.solver.e_to_h(result.ez)
        np.testing.assert_array_equal(result.hx, want_hx)
        np.testing.assert_array_equal(result.hy, want_hy)
        forward = 1j * omega * result.source[None]
        _assert_full_residual(grid, omega, eps, forward, result.ez[None], engine.rtol)
        lam = evaluation.adjoint_field[None]
        _assert_full_residual(grid, omega, eps, adjoint_source[None], lam, engine.rtol)
    assert len(exterior_solves) == solves + 2


class _OffPortAdjoint(Objective):
    """A port objective whose adjoint source also drives one exterior cell off the ports."""

    def __init__(self, inner, cell):
        self.inner, self.cell = inner, cell

    def value_and_adjoint_source(self, sim, result):
        value, adjoint = self.inner.value_and_adjoint_source(sim, result)
        adjoint = adjoint.copy()
        adjoint[self.cell] += np.abs(adjoint).max()
        return value, adjoint


@pytest.mark.parametrize("off_ports", [False, True], ids=["port-adjoint", "off-port-adjoint"])
def test_engine_region_smaller_than_the_device_region(off_ports):
    """Fields deferred outside the engine's region still give the exact gradient."""
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    sx, sy = device.geometry.design_slice
    engine = RecycledEngine(
        cache=FactorizationCache(),
        design_region=(slice(sx.start + 3, sx.stop - 3), slice(sy.start + 3, sy.stop - 3)),
    )
    objectives = None
    if off_ports:
        objectives = {
            i: _OffPortAdjoint(objective_for_spec(spec), (2, 2))
            for i, spec in enumerate(device.specs)
        }
    backend = NumericalFieldBackend(engine, workspace=SolveWorkspace())
    density = np.random.default_rng(8).uniform(0.2, 0.8, device.design_shape)
    for _ in range(3):  # one-off, exterior build, exact hit
        got = evaluate_specs(device, density, backend=backend, objectives=objectives)
    exact = NumericalFieldBackend(DirectEngine(cache=FactorizationCache()))
    want = evaluate_specs(device, density, backend=exact, objectives=objectives)
    (key,) = [key for key in engine.cache.keys() if key[3] == "exterior"]
    assert engine.cache.peek(*key[:3], tag="exterior").ports is not None
    for g, w in zip(got, want):
        assert _relative_scalar(g.objective_value, w.objective_value) <= 1e-10
        assert _relative(g.grad_density, w.grad_density) <= 1e-10


def test_port_and_label_exteriors_are_kept_apart():
    """A label run's port-less exterior never serves the loop, nor the loop's the labels."""
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    cache = FactorizationCache()
    label = _region_engine(device, cache=cache)
    sim = Simulation(device.grid, device.eps_with_design(np.full(device.design_shape, 0.5)),
                     device.specs[0].wavelength, device.geometry.ports, engine=label)
    sim.solve(device.specs[0].source_port)
    (key,) = [key for key in cache.keys() if key[3] == "exterior"]
    plain = cache.peek(*key[:3], tag="exterior")
    assert plain.ports is None

    _, evaluations = _port_loop(device, _region_recycled(device, cache=cache))
    assert all(isinstance(vars(e.result)["ez"], Deferred) for e in evaluations)
    exteriors = [cache.peek(*k[:3], tag="exterior") for k in cache.keys() if k[3] == "exterior"]
    assert len(exteriors) == 2 and exteriors[0] is plain
    assert exteriors[1].ports is not None

    # The label engine still solves exactly, through its own exterior.
    eps = device.eps_with_design(np.random.default_rng(3).uniform(0, 1, device.design_shape))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    rhs = np.random.default_rng(5).normal(size=(1, *device.grid.shape)).astype(complex)
    solution = label.solve_batch(device.grid, omega, eps, rhs)
    _assert_full_residual(device.grid, omega, eps, rhs, solution, 1e-9)
    condensed = [cache.peek(*k[:3], tag="condensed") for k in cache.keys() if k[3] == "condensed"]
    assert len(condensed) == 2 and all(entry.exterior is plain for entry in condensed)


def test_right_hand_sides_off_the_ports_take_the_full_reduction():
    device = make_device("crossing", dl=0.1, **DEVICE_SIZE)
    grid = device.grid
    engine = _region_recycled(device)
    rng = np.random.default_rng(6)
    density = rng.uniform(0.0, 1.0, device.design_shape)
    omega = wavelength_to_omega(device.specs[0].wavelength)
    rows = port_rows(tuple(device.geometry.ports), grid)
    sim = Simulation(grid, device.eps_with_design(density), device.specs[0].wavelength,
                     device.geometry.ports)
    on_ports = 1j * omega * sim.mode_source(device.specs[0].source_port)[None]
    off_ports = rng.normal(size=(2, *grid.shape)) + 1j * rng.normal(size=(2, *grid.shape))
    for _ in range(2):  # one-off, then the exterior is built with its port block
        engine.solve_batch(grid, omega, device.eps_with_design(density), on_ports, port_rows=rows)
    known = np.zeros(grid.shape, dtype=bool)
    known[device.geometry.design_slice] = True
    known = known.ravel()
    known[rows] = True
    for scale in (0.0, 0.01):  # exact hit, recycled
        eps = _drifted(device, density, rng, scale)
        for rhs, reads in ((off_ports, rows), (on_ports, None), (on_ports, np.arange(3))):
            solution = engine.solve_batch(grid, omega, eps, rhs, port_rows=reads)
            assert isinstance(solution, np.ndarray)
            _assert_full_residual(grid, omega, eps, rhs, solution, engine.rtol)
        solution = engine.solve_batch(grid, omega, eps, on_ports, port_rows=rows)
        assert isinstance(solution, Deferred)
        partial = solution.partial.reshape(1, -1)
        assert np.isnan(partial[:, ~known]).all() and np.isfinite(partial[:, known]).all()
        _assert_full_residual(grid, omega, eps, on_ports, np.asarray(solution), engine.rtol)


def test_no_partial_field_leaks(tmp_path, monkeypatch):
    """NaN never reaches a public field, the result cache or a full-grid frame's guess."""
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    cache = FactorizationCache()
    engine = _region_recycled(device, cache=cache)
    workspace = SolveWorkspace()
    density, evaluations = _port_loop(device, engine, workspace)
    assert all(isinstance(vars(e.result)["ez"], Deferred) for e in evaluations)
    guesses = workspace.guess_stack(list(workspace._fields), device.grid.shape)
    assert np.isnan(guesses).any()  # the stored port-solve fields are partial

    guesses_seen = []
    solve_reduced = RecycledEngine._solve_reduced

    def spy(self, frame, eps_r, fingerprint, rhs, full_rhs, x0):
        if frame.exterior is None:
            guesses_seen.append(x0)
        return solve_reduced(self, frame, eps_r, fingerprint, rhs, full_rhs, x0)

    monkeypatch.setattr(RecycledEngine, "_solve_reduced", spy)
    cache.attach_store(FileFactorizationStore(tmp_path / "store"))
    backend = NumericalFieldBackend(engine, workspace=workspace)
    for scale in (0.0, 0.01):
        drifted = np.clip(density + scale, 0.0, 1.0)
        evaluations = evaluate_specs(device, drifted, backend=backend)
    assert guesses_seen and any(x0 is None for x0 in guesses_seen)
    assert all(x0 is None or np.isfinite(x0).all() for x0 in guesses_seen)
    cache.attach_store(None)

    evaluations = _port_loop(device, engine, SolveWorkspace())[1]
    for evaluation in evaluations:
        result = evaluation.result
        for name in ("ez", "hx", "hy"):
            assert np.isfinite(getattr(result, name)).all(), name
        assert np.isfinite(evaluation.adjoint_field).all()

    # Results entering the result cache are read in full first.
    clear_result_cache()
    sim = Simulation(device.grid, device.eps_with_design(density), device.specs[0].wavelength,
                     device.geometry.ports, engine=engine)
    for _ in range(2):
        sim.solve(device.specs[0].source_port)
    entries = [simulation_module._RESULT_CACHE.get(key) for key in simulation_module._RESULT_CACHE.keys()]
    assert entries
    for entry in entries:
        for name in ("ez", "hx", "hy"):
            value = vars(entry)[name]
            assert isinstance(value, np.ndarray) and np.isfinite(value).all(), name
