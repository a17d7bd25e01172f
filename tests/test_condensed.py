"""Condensed solves: the design-region Schur complement paths of the engines.

Both exact engines follow one rule: given a device's design region, a solve
that passes ``port_rows`` and whose right-hand sides vanish off the region
and those rows (``I ∪ P``) condenses onto the region from the first solve
on, against an exterior factored once and keyed by content.  Every other
solve (the normalization runs, right-hand sides off ``I ∪ P``) is one exact
full-grid solve.

A ``DirectEngine`` then factors each design's condensed operator on the
region.  These tests pin that the condensed factor solves the same systems as
the full LU (every zoo device, two grids, forward and adjoint right-hand
sides, Kerr fixed points), that solves outside the rule (no ``port_rows``)
are factored in full, and that label extraction actually takes the path.

A ``RecycledEngine`` recycles on the Schur complement.  Its tests pin the
full-system residual of every path (reference hit, refinement,
refactorization after a failed refinement, refactorization on drift),
exterior residency in the cache, the one-off full-grid
solve outside the rule and the optimization loop's FoM history against
exact solves.
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
    resolve_engine,
)
from repro.fdfd.lazy import Deferred, known
from repro.fdfd.monitors import port_rows
from repro.fdfd.nonlinear import KerrNonlinearity, KerrSolver
import repro.fdfd.simulation as simulation_module
from repro.fdfd.simulation import (
    Simulation,
    normalization_geometry,
    port_mode_source,
)
from repro.fdfd.solver import FdfdSolver
from repro.fabrication.corners import FabricationCorner
from repro.invdes import AdjointOptimizer, InverseDesignProblem, RobustInverseDesignProblem
from repro.invdes.adjoint import NumericalFieldBackend, Sweep, evaluate_specs
from repro.invdes.objectives import Objective, objective_for_spec
from repro.utils.cache import BoundedCache

DEVICE_SIZE = dict(domain=3.0, design_size=1.4)
PARITY_CASES = [(name, dl) for name in available_devices() for dl in (0.1, 0.08)]


def _region_engine(device, cache=None) -> DirectEngine:
    return DirectEngine(
        cache=cache if cache is not None else FactorizationCache(),
        design_region=device.geometry.design_slice,
    )


def _rows(device):
    return port_rows(tuple(device.geometry.ports), device.grid)


def _on_region_and_ports(device, stack: np.ndarray) -> np.ndarray:
    """``stack`` zeroed off ``I ∪ P``: right-hand sides a region solve condenses."""
    keep = np.zeros(device.grid.shape, dtype=bool)
    keep[device.geometry.design_slice] = True
    keep.ravel()[_rows(device)] = True
    return np.where(keep, stack, 0.0)


def _tags(cache) -> set[str]:
    """Cache tags, with the exterior key of a Schur factor's tag dropped."""
    return {key[3].partition(":")[0] for key in cache.keys()}


def _schur_factors(cache, grid, omega, fingerprint, kind="condensed") -> list:
    """The ``kind`` Schur factors cached for one operator, under any exterior."""
    return [
        cache.peek(*key[:3], tag=key[3])
        for key in cache.keys()
        if key[:3] == (grid, float(omega), fingerprint) and key[3].startswith(kind + ":")
    ]


def _relative(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _relative_scalar(got, want) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


@pytest.mark.parametrize(
    "name,dl", PARITY_CASES, ids=[f"{name}-dl{dl:.2f}" for name, dl in PARITY_CASES]
)
def test_condensed_factor_matches_full_lu(name, dl):
    """Objectives, fields and adjoint gradients through ``S`` equal the full LU's."""
    device = make_device(name, dl=dl, **DEVICE_SIZE)
    density = np.random.default_rng(11).uniform(0.0, 1.0, device.design_shape)
    engine = _region_engine(device)
    evaluations = {}
    for label, solver in (("condensed", engine), ("full", DirectEngine(cache=FactorizationCache()))):
        evaluations[label] = evaluate_specs(
            device, density, backend=NumericalFieldBackend(solver)
        )
    assert {"condensed", "exterior"} <= _tags(engine.cache)
    for got, want in zip(evaluations["condensed"], evaluations["full"]):
        assert isinstance(vars(got)["adjoint_field"], Deferred)
        assert _relative_scalar(got.objective_value, want.objective_value) <= 1e-10
        assert _relative(got.result.ez, want.result.ez) <= 1e-10
        assert _relative(got.grad_density, want.grad_density) <= 1e-10


@pytest.mark.parametrize("name,dl", [("bending", 0.05), ("wdm", 0.08)])
def test_ring_last_factor_matches_back_substitutions(name, dl, monkeypatch):
    """The Schur template read off the ring-last factor equals the k-solve one."""
    device = make_device(name, dl=dl, **DEVICE_SIZE)
    eps = device.eps_with_design(np.random.default_rng(4).uniform(0, 1, device.design_shape))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    region = device.geometry.design_slice
    fast = engine_module._Exterior(device.grid, omega, eps, region, _rows(device))
    splu = engine_module.spla.splu
    natural = []

    def no_natural_order(matrix, **kwargs):
        if kwargs.get("permc_spec") == "NATURAL":
            natural.append(matrix.shape)
            raise RuntimeError("Factor is exactly singular")
        return splu(matrix, **kwargs)

    monkeypatch.setattr(engine_module.spla, "splu", no_natural_order)
    slow = engine_module._Exterior(device.grid, omega, eps, region, _rows(device))
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
    def test_only_solves_naming_port_rows_condense(self, variant):
        """The rule reads the call, not the permittivity: any exterior condenses with port rows."""
        device = make_device("bending", dl=0.1, **DEVICE_SIZE)
        engine = _region_engine(device)
        density = np.random.default_rng(2).uniform(0.0, 1.0, device.design_shape)
        eps = getattr(self, variant)(device, device.eps_with_design(density))
        omega = wavelength_to_omega(device.specs[0].wavelength)
        fingerprint = eps_fingerprint(eps)
        rhs = _on_region_and_ports(device, np.ones((1, *device.grid.shape), dtype=complex))
        engine.solve_batch(device.grid, omega, eps, rhs)
        assert engine.cache.peek(device.grid, omega, fingerprint, tag="direct") is not None
        assert _tags(engine.cache) == {"direct"}
        engine.solve_batch(device.grid, omega, eps, rhs, port_rows=_rows(device))
        assert len(_schur_factors(engine.cache, device.grid, omega, fingerprint)) == 1
        assert _tags(engine.cache) == {"direct", "condensed", "exterior"}


    def test_engine_instances_and_other_tiers_are_used_as_given(self):
        region = make_device("bending", dl=0.1, **DEVICE_SIZE).geometry.design_slice
        for name in (None, "direct", "HIGH", "superlu", " Recycled "):
            assert resolve_engine(name, design_region=region).design_region == region, name
        assert resolve_engine(None).design_region is None
        assert resolve_engine("fdtd", design_region=region).design_region is None
        instance = DirectEngine()
        assert resolve_engine(instance, design_region=region) is instance
        assert instance.design_region is None


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
    assert _schur_factors(default_factorization_cache, device.grid, omega, fingerprint)
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
    noise = _on_region_and_ports(device, noise)
    rhs = np.stack([forward, noise * np.abs(forward).max()])
    engine = _region_recycled(device)
    stats = engine.stats

    def solve(eps_r, counter):
        before = getattr(stats, counter)
        solution = np.asarray(engine.solve_batch(grid, omega, eps_r, rhs, port_rows=_rows(device)))
        assert getattr(stats, counter) == before + 1, counter
        _assert_full_residual(grid, omega, eps_r, rhs, solution, engine.rtol)
        return solution

    solve(eps, "factorizations")  # the first solve: a reference on S
    assert _tags(engine.cache) == {"exterior", "recycled_schur"}
    solve(eps, "exact_solves")
    solve(_drifted(device, density, rng, 0.01), "recycled_solves")

    def no_refinement(*args, **kwargs):
        raise RefinementError("forced")

    monkeypatch.setattr(engine_module, "iterative_refine", no_refinement)
    # A failed refinement falls back to a refactorization.
    solve(_drifted(device, density, rng, 0.01), "factorizations")
    assert stats.fallbacks == 1
    monkeypatch.undo()

    far = device.eps_with_design(rng.uniform(0.0, 1.0, device.design_shape))
    solve(far, "factorizations")  # drift beyond the threshold
    assert stats.fallbacks == 1
    keys = engine.cache.keys()
    assert [key[3] for key in keys].count("exterior") == 1
    assert _tags(engine.cache) == {"exterior", "recycled_schur"}


class _CountingExterior(engine_module._Exterior):
    built: list = []

    def __init__(self, grid, omega, eps_r, region, ports):
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


# --------------------------------------------------------------------------- #
# the one condensing rule: a solve that names its port rows condenses
# --------------------------------------------------------------------------- #
BOTH_ENGINES = pytest.mark.parametrize(
    "make", [_region_engine, _region_recycled], ids=["direct", "recycled"]
)


@BOTH_ENGINES
def test_the_first_port_solve_condenses(make, counting_exteriors):
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    grid = device.grid
    engine = make(device)
    eps = device.eps_with_design(np.random.default_rng(9).uniform(0, 1, device.design_shape))
    spec = device.specs[0]
    omega = wavelength_to_omega(spec.wavelength)
    sim = Simulation(grid, eps, spec.wavelength, device.geometry.ports)
    rhs = 1j * omega * sim.mode_source(spec.source_port, spec.source_mode)[None]
    solution = engine.solve_batch(grid, omega, eps, rhs, port_rows=_rows(device))
    _assert_full_residual(grid, omega, eps, rhs, np.asarray(solution), 1e-6)
    assert len(counting_exteriors) == 1
    outside = np.ones(grid.shape, dtype=bool)
    outside[device.geometry.design_slice] = False
    np.testing.assert_array_equal(counting_exteriors[0][1], eps[outside])
    per_design = "condensed" if isinstance(engine, DirectEngine) else "recycled_schur"
    assert _tags(engine.cache) == {"exterior", per_design}


@BOTH_ENGINES
def test_a_normalization_solve_builds_no_exterior(make, counting_exteriors):
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    grid = device.grid
    engine = make(device)
    port = next(p for p in device.geometry.ports if p.name == device.specs[0].source_port)
    guide, _ = normalization_geometry(grid, port, device.geometry.eps_background[port.indices(grid)])
    omega = wavelength_to_omega(device.specs[0].wavelength)
    source = port_mode_source(port, guide, grid, omega, 0)
    solution = FdfdSolver(grid, omega, engine=engine).solve(guide, source)
    _assert_full_residual(grid, omega, guide, 1j * omega * source[None], solution.ez[None], 1e-9)
    assert counting_exteriors == []
    if isinstance(engine, DirectEngine):
        assert _tags(engine.cache) == {"direct"}
    else:
        # One exact full-grid solve that keeps no reference LU.
        assert engine.stats.factorizations == 1 and len(engine.cache) == 0
        assert not any(engine._references.values())


def test_kerr_robust_corners_condense(counting_exteriors):
    """The Kerr fixed point's inner and adjoint solves condense at every corner."""
    device = make_device("kerr_limiter", dl=0.1, **DEVICE_SIZE)
    corners = [
        FabricationCorner(name="nominal"),
        FabricationCorner(name="hot", temperature_drift=TemperatureDrift(20.0)),
    ]
    foms = {}
    for label, engine in (("region", "recycled"), ("full", DirectEngine(cache=FactorizationCache()))):
        base = InverseDesignProblem(device, engine=engine, nonlinearity=KerrNonlinearity(rtol=1e-10))
        robust = RobustInverseDesignProblem(base, corners=corners)
        foms[label] = robust.evaluate(base.initial_theta("uniform")).fom
        if label == "region":
            cache = base.backend.engine.cache
            assert len(counting_exteriors) == 2  # one per corner exterior
            assert _tags(cache) == {"exterior", "recycled_schur"}
    assert foms["region"] == pytest.approx(foms["full"], rel=1e-6)


@pytest.mark.parametrize(
    "problem,iterations,exteriors,factorizations",
    [("invdes", 100, 1, 21), ("robust", 12, 3, 83)],
)
def test_perfbench_loops_condense_from_the_first_solve(
    problem, iterations, exteriors, factorizations, counting_exteriors, monkeypatch
):
    """The perfbench ``invdes`` and ``robust`` loops build one exterior per
    exterior permittivity and pay no full-grid factorization for a design.

    Condensing from an exterior's second sighting, as this engine once did,
    cost one more full-grid factorization per exterior (22 and 57).
    """
    # Cold normalizations, as in a perfbench episode's fresh process.
    monkeypatch.setattr(simulation_module, "_NORMALIZATION_CACHE", BoundedCache(256))
    device = make_device("bending", fidelity="high", domain=3.5, design_size=1.8)
    base = InverseDesignProblem(device, engine="recycled")
    loop = base if problem == "invdes" else RobustInverseDesignProblem(base)
    optimizer = AdjointOptimizer(loop, learning_rate=0.2, beta_schedule={0: 4.0, 10: 8.0, 20: 16.0})
    theta0 = loop.initial_theta("waveguide")
    theta0 = theta0 + np.random.default_rng(1).uniform(-0.005, 0.005, theta0.shape)
    optimizer.run(theta0, iterations=iterations)
    engine = base.backend.engine
    assert len(counting_exteriors) == exteriors
    # No full-grid reference: the normalization runs' one-off solves keep nothing.
    assert "recycled" not in _tags(engine.cache)
    assert engine.stats.factorizations == factorizations


@pytest.mark.parametrize("name", ["bending", "crossing"])
def test_port_rows_read_the_same_whichever_is_read_first(name):
    """A recovered field keeps the port-row values its readout exposed, so a
    one-off solve (read in full before its objective) and a workspace solve
    (deferred) give bitwise the same objective value and adjoint gradient."""
    device = make_device(name, dl=0.1, **DEVICE_SIZE)
    eps = device.eps_with_design(np.random.default_rng(9).uniform(0, 1, device.design_shape))
    spec = device.specs[0]
    outcomes = {}
    for label, workspace in (("one-off", None), ("deferred", SolveWorkspace())):
        sim = Simulation(
            device.grid, eps, spec.wavelength, device.geometry.ports, engine=_region_engine(device)
        )
        (result,) = sim.solve_multi([(spec.source_port, spec.source_mode)], workspace=workspace)
        assert isinstance(vars(result)["ez"], Deferred) == (workspace is not None)
        value, source = objective_for_spec(spec).value_and_adjoint_source(sim, result)
        (lam,) = sim.solver.solve_adjoint_batch(
            sim.eps_r, [source], fingerprint=sim._eps_fingerprint, port_rows=sim.port_rows
        )
        gradient = sim.solver.permittivity_gradient(known(result, "ez"), known(lam))
        outcomes[label] = (value, gradient[device.geometry.design_slice], result.transmissions)
    (value, gradient, transmissions), deferred = outcomes["one-off"], outcomes["deferred"]
    assert value == deferred[0]
    assert np.array_equal(gradient, deferred[1])
    assert transmissions == deferred[2]


def test_problem_gives_the_named_recycled_tier_the_design_region(tiny_bend):
    for name, kind in ((None, DirectEngine), ("direct", DirectEngine), ("recycled", RecycledEngine)):
        named = InverseDesignProblem(tiny_bend, engine=name).backend.engine
        assert type(named) is kind
        assert named.design_region == tiny_bend.geometry.design_slice
    sx, sy = tiny_bend.geometry.design_slice
    own_region = (slice(sx.start + 3, sx.stop - 3), sy)
    instance = RecycledEngine(cache=FactorizationCache(), design_region=own_region)
    assert InverseDesignProblem(tiny_bend, engine=instance).backend.engine is instance
    assert instance.design_region == own_region


def test_quickstart_loop_foms_match_exact_solves():
    """The quickstart loop at the perfbench scale: FoM histories agree to 1e-6."""
    device = make_device("bending", fidelity="high", domain=3.5, design_size=1.8)
    engines = {"direct": DirectEngine(cache=FactorizationCache()), "region": "recycled"}
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


@pytest.fixture
def tail_fallbacks(monkeypatch):
    """Counts the back-substitutions of ``_tail_inverse``'s fallback path."""
    counts = {"solves": 0}
    tail_inverse = engine_module._tail_inverse

    class CountingLU:
        def __init__(self, lu):
            self.perm_c = lu.perm_c
            self._lu = lu

        def solve(self, rhs):
            counts["solves"] += 1
            return self._lu.solve(rhs)

    def counting(a_ee, lu, tail):
        return tail_inverse(a_ee, CountingLU(lu), tail)

    monkeypatch.setattr(engine_module, "_tail_inverse", counting)
    return counts


@pytest.mark.parametrize("name,dl", [("bending", 0.05), ("wdm", 0.08)])
def test_port_block_matches_back_substitutions(name, dl, monkeypatch, tail_fallbacks):
    """The port block read off the tail factor equals columns of ``A_EE^{-1}``."""
    device = make_device(name, dl=dl, **DEVICE_SIZE)
    eps = device.eps_with_design(np.random.default_rng(4).uniform(0, 1, device.design_shape))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    region = device.geometry.design_slice
    ports = _rows(device)
    fast = engine_module._Exterior(device.grid, omega, eps, region, ports)
    assert tail_fallbacks["solves"] == 0
    splu = engine_module.spla.splu

    def no_natural_order(matrix, **kwargs):
        if kwargs.get("permc_spec") == "NATURAL":
            raise RuntimeError("Factor is exactly singular")
        return splu(matrix, **kwargs)

    monkeypatch.setattr(engine_module.spla, "splu", no_natural_order)
    slow = engine_module._Exterior(device.grid, omega, eps, region, ports)
    assert tail_fallbacks["solves"] > 0
    assert _relative(fast.schur.toarray(), slow.schur.toarray()) <= 1e-12
    for block in ("_w_rp", "_w_pp", "_w_pr"):
        assert _relative(getattr(fast, block), getattr(slow, block)) <= 1e-12, block
    # The port-to-port block against explicit back-substitutions.
    positions = np.searchsorted(fast.exterior, fast.ports)
    unit = np.zeros((fast.exterior.size, positions.size), dtype=complex)
    unit[positions, np.arange(positions.size)] = 1.0
    assert _relative(fast._w_pp, fast.lu.solve(unit)[positions]) <= 1e-12


@pytest.mark.parametrize("fidelity", ["low", "high"])
@pytest.mark.parametrize("name", available_devices())
def test_port_block_comes_from_the_tail_factor(name, fidelity, tail_fallbacks):
    """No zoo device falls back to back-substituting its port block column by column."""
    device = make_device(name, fidelity=fidelity)
    eps = device.eps_with_design(np.random.default_rng(4).uniform(0, 1, device.design_shape))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    engine_module._Exterior(device.grid, omega, eps, device.geometry.design_slice, _rows(device))
    assert tail_fallbacks["solves"] == 0


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
    for _ in range(3):  # exterior build, then exact hits
        got = evaluate_specs(device, density, backend=backend, objectives=objectives)
    exact = NumericalFieldBackend(DirectEngine(cache=FactorizationCache()))
    want = evaluate_specs(device, density, backend=exact, objectives=objectives)
    (key,) = [key for key in engine.cache.keys() if key[3] == "exterior"]
    assert engine.cache.peek(*key[:3], tag="exterior").ports is not None
    for g, w in zip(got, want):
        assert _relative_scalar(g.objective_value, w.objective_value) <= 1e-10
        assert _relative(g.grad_density, w.grad_density) <= 1e-10


def _label_bytes(device, density) -> list[tuple]:
    labels = extract_labels_batch(device, density, with_gradient=True)
    return [
        (label.ez.tobytes(), sorted(label.transmissions.items()), label.adjoint_gradient.tobytes())
        for label in labels
    ]


def test_labels_do_not_depend_on_who_built_the_exterior(monkeypatch):
    """Labels read the loop's ported exterior, byte for byte as if they had built it."""
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    density = np.random.default_rng(3).uniform(0, 1, device.design_shape)
    runs = []
    for loop_first in (False, True):
        cache = FactorizationCache()
        monkeypatch.setattr(engine_module, "default_factorization_cache", cache)
        if loop_first:
            _, evaluations = _port_loop(device, _region_recycled(device, cache=cache))
            assert all(isinstance(vars(e.result)["ez"], Deferred) for e in evaluations)
        exteriors = len([key for key in cache.keys() if key[3] == "exterior"])
        runs.append(_label_bytes(device, density))
        # The labels built no exterior of their own after the loop's.
        assert [key[3] for key in cache.keys()].count("exterior") == max(exteriors, 1)
    assert runs[0] == runs[1]


def test_labels_and_adam_steps_hash_the_permittivity_twice(monkeypatch, tiny_bend):
    """Once in full and once outside the design region, per labelled design
    and per recycled Adam step: the adjoint reuses its forward solve's
    fingerprint and the exterior key is derived once per fingerprint."""
    import repro.fdfd.nonlinear as nonlinear_module
    import repro.fdfd.solver as solver_module

    hashed = []
    original = engine_module.eps_fingerprint

    def counting(eps_r):
        hashed.append(np.size(eps_r))
        return original(eps_r)

    for module in (engine_module, simulation_module, solver_module, nonlinear_module):
        monkeypatch.setattr(module, "eps_fingerprint", counting)
    full = tiny_bend.grid.n_points
    outside = full - np.ones(tiny_bend.grid.shape)[tiny_bend.geometry.design_slice].size

    rng = np.random.default_rng(0)
    per_design = []
    for _ in range(3):
        hashed.clear()
        density = rng.uniform(size=tiny_bend.design_shape)
        extract_labels_batch(tiny_bend, density, with_gradient=True)
        per_design.append(list(hashed))
    # The first design may also run (and hash) the normalization solves.
    assert per_design[1:] == [[full, outside]] * 2

    problem = InverseDesignProblem(tiny_bend, engine="recycled")
    per_step = []

    def step(*_):
        per_step.append(list(hashed))
        hashed.clear()

    hashed.clear()
    AdjointOptimizer(problem, learning_rate=0.2).run(
        problem.initial_theta("waveguide"), iterations=3, callback=step
    )
    assert per_step[1:] == [[full, outside]] * 2


def test_region_engines_never_share_a_schur_factor():
    """Two regions, one cache, the same permittivity: each engine solves through its own ``S``."""
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    grid = device.grid
    sx, sy = device.geometry.design_slice
    cache = FactorizationCache()
    engines = [
        DirectEngine(cache=cache, design_region=device.geometry.design_slice),
        DirectEngine(cache=cache, design_region=(slice(sx.start + 3, sx.stop - 3), sy)),
    ]
    eps = device.eps_with_design(np.random.default_rng(3).uniform(0, 1, device.design_shape))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    sim = Simulation(grid, eps, device.specs[0].wavelength, device.geometry.ports)
    on_ports = 1j * omega * sim.mode_source(device.specs[0].source_port)
    noise = np.random.default_rng(5).normal(size=grid.shape).astype(complex)
    for rhs in (on_ports[None], np.stack([on_ports, noise])):  # port path, full grid
        for engine in engines + engines:
            solution = engine.solve_batch(grid, omega, eps, rhs, port_rows=_rows(device))
            _assert_full_residual(grid, omega, eps, rhs, np.asarray(solution), 1e-9)
    assert len(_schur_factors(cache, grid, omega, eps_fingerprint(eps))) == 2


def test_labels_back_substitute_through_the_exterior_once_per_design(exterior_solves):
    """Labels read the forward field in full (one recovery) and the adjoint on the region only."""
    device = make_device("bending", fidelity="high", domain=3.5, design_size=1.8)
    rng = np.random.default_rng(2)
    designs = [rng.uniform(0, 1, device.design_shape) for _ in range(3)]
    for count, density in enumerate(designs, start=1):
        labels = extract_labels_batch(device, density, with_gradient=True)
        assert np.isfinite(labels[0].ez).all() and np.isfinite(labels[0].hy).all()
        assert labels[0].maxwell_residual <= 1e-8
        assert len(exterior_solves) == count


@pytest.mark.parametrize("name", ["kerr_switch", "kerr_limiter"])
def test_kerr_labels_back_substitute_once_per_inner_solve(name, exterior_solves, monkeypatch):
    """Every Kerr inner solve takes the port block and recovers its field with one
    exterior back-substitution: Newton residuals carry no roundoff off ``I ∪ P``."""
    device = make_device(name, dl=0.1, **DEVICE_SIZE)
    density = np.random.default_rng(5).uniform(0.2, 0.8, device.design_shape)
    inner_solves = []
    inner_solve = KerrSolver._inner_solve

    def counting(self, *args, **kwargs):
        inner_solves.append(1)
        return inner_solve(self, *args, **kwargs)

    monkeypatch.setattr(KerrSolver, "_inner_solve", counting)
    extract_labels_batch(
        device, density, engine="direct", sweep=Sweep(nonlinearity=KerrNonlinearity(rtol=1e-10))
    )
    assert len(inner_solves) > len(device.specs)
    assert len(exterior_solves) == len(inner_solves)


def test_reading_every_deferred_field_curls_once(monkeypatch):
    """``ez``, ``hx`` and ``hy`` of one deferred solution cost one full-field ``e_to_h``."""
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    engine = _region_engine(device)
    eps = device.eps_with_design(np.random.default_rng(4).uniform(0, 1, device.design_shape))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    sim = Simulation(device.grid, eps, device.specs[0].wavelength, device.geometry.ports)
    solver = FdfdSolver(device.grid, omega, engine=engine)
    full_curls = []
    e_to_h = FdfdSolver.e_to_h

    def counting(self, ez):
        full_curls.append(bool(np.isfinite(ez).all()))
        return e_to_h(self, ez)

    monkeypatch.setattr(FdfdSolver, "e_to_h", counting)
    (solution,) = solver.solve_batch(
        eps, [sim.mode_source(device.specs[0].source_port)], port_rows=_rows(device)
    )
    assert isinstance(vars(solution)["hx"], Deferred)
    assert full_curls.count(True) == 0
    for name in ("ez", "hx", "hy", "hx", "hy"):
        assert np.isfinite(getattr(solution, name)).all(), name
    assert full_curls.count(True) == 1
    want_hx, want_hy = e_to_h(solver, solution.ez)
    np.testing.assert_array_equal(solution.hx, want_hx)
    np.testing.assert_array_equal(solution.hy, want_hy)


def test_schur_factor_failing_its_probe_falls_back_to_factor_lu(monkeypatch):
    """``S`` factors in its natural order; a factor that fails the probe is refactored in full."""
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    grid = device.grid
    engine = _region_engine(device)
    eps = device.eps_with_design(np.random.default_rng(6).uniform(0, 1, device.design_shape))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    rhs = np.random.default_rng(7).normal(size=(2, *grid.shape)).astype(complex)
    rhs = _on_region_and_ports(device, rhs)
    # Build the exterior first, so only the Schur factor meets the patches.
    engine.solve_batch(grid, omega, device.eps_with_design(np.zeros(device.design_shape)),
                       rhs, port_rows=_rows(device))
    n_interior = int(np.prod(device.design_shape))
    splu = engine_module.spla.splu
    factor_lu_calls = []
    real_factor_lu = engine_module.factor_lu

    class Inaccurate:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return 2.0 * self.lu.solve(b)

    def inaccurate_natural_order(matrix, **kwargs):
        lu = splu(matrix, **kwargs)
        if kwargs.get("permc_spec") == "NATURAL" and matrix.shape == (n_interior, n_interior):
            return Inaccurate(lu)
        return lu

    def counting_factor_lu(matrix):
        factor_lu_calls.append(matrix.shape)
        return real_factor_lu(matrix)

    monkeypatch.setattr(engine_module.spla, "splu", inaccurate_natural_order)
    monkeypatch.setattr(engine_module, "factor_lu", counting_factor_lu)
    solution = engine.solve_batch(grid, omega, eps, rhs, port_rows=_rows(device))
    assert factor_lu_calls == [(n_interior, n_interior)]
    (lu,) = _schur_factors(engine.cache, grid, omega, eps_fingerprint(eps))
    assert isinstance(lu, engine_module.spla.SuperLU)
    _assert_full_residual(grid, omega, eps, rhs, np.asarray(solution), 1e-9)


def test_right_hand_sides_off_the_ports_solve_on_the_full_grid():
    """Off ``I ∪ P``, or without the rows they cover, right-hand sides take exact full solves."""
    device = make_device("crossing", dl=0.1, **DEVICE_SIZE)
    grid = device.grid
    engine = _region_recycled(device)
    rng = np.random.default_rng(6)
    density = rng.uniform(0.0, 1.0, device.design_shape)
    omega = wavelength_to_omega(device.specs[0].wavelength)
    rows = _rows(device)
    sim = Simulation(grid, device.eps_with_design(density), device.specs[0].wavelength,
                     device.geometry.ports)
    on_ports = 1j * omega * sim.mode_source(device.specs[0].source_port)[None]
    off_ports = rng.normal(size=(2, *grid.shape)) + 1j * rng.normal(size=(2, *grid.shape))
    # The first solve builds the exterior with its port block.
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


@BOTH_ENGINES
def test_off_port_solves_skip_the_exterior(make, exterior_solves):
    """A right-hand side off ``I ∪ P`` is one exact full-grid solve: no exterior
    back-substitution, and no reference kept."""
    device = make_device("crossing", dl=0.1, **DEVICE_SIZE)
    grid = device.grid
    engine = make(device)
    eps = device.eps_with_design(np.random.default_rng(6).uniform(0, 1, device.design_shape))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    sim = Simulation(grid, eps, device.specs[0].wavelength, device.geometry.ports)
    on_ports = 1j * omega * sim.mode_source(device.specs[0].source_port)[None]
    # The port solve builds the exterior; its Deferred field stays unread.
    solution = engine.solve_batch(grid, omega, eps, on_ports, port_rows=_rows(device))
    assert isinstance(solution, Deferred)

    def tables():
        return [
            dict(zip(refs.keys(), refs.values()))
            for refs in getattr(engine, "_references", {}).values()
        ]

    references = tables()
    rng = np.random.default_rng(3)
    off_ports = on_ports.copy()
    off_ports[0, 2, 2] = np.abs(on_ports).max()  # one cell off the ports, in the PML
    for rhs in (off_ports, rng.normal(size=(2, *grid.shape)).astype(complex)):
        solution = engine.solve_batch(grid, omega, eps, rhs, port_rows=_rows(device))
        assert isinstance(solution, np.ndarray)
        _assert_full_residual(grid, omega, eps, rhs, solution, 1e-9)
    assert exterior_solves == []
    assert tables() == references


def test_recycled_engine_needs_a_region():
    with pytest.raises(ValueError, match=r"resolve_engine\(name, design_region="):
        RecycledEngine(cache=FactorizationCache())
    with pytest.raises(ValueError, match="design_region"):
        resolve_engine("recycled")


def test_no_partial_field_leaks(monkeypatch):
    """NaN never reaches a public field or a solve's guess."""
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
        guesses_seen.append(x0)
        return solve_reduced(self, frame, eps_r, fingerprint, rhs, full_rhs, x0)

    monkeypatch.setattr(RecycledEngine, "_solve_reduced", spy)
    # The partial fields guess the next solves on the region, which read them on I only.
    backend = NumericalFieldBackend(engine, workspace=workspace)
    for scale in (0.0, 0.01):
        drifted = np.clip(density + scale, 0.0, 1.0)
        evaluations = evaluate_specs(device, drifted, backend=backend)
    assert guesses_seen and all(x0 is not None for x0 in guesses_seen)
    assert all(np.isfinite(x0).all() for x0 in guesses_seen)

    evaluations = _port_loop(device, engine, SolveWorkspace())[1]
    for evaluation in evaluations:
        result = evaluation.result
        for name in ("ez", "hx", "hy"):
            assert np.isfinite(getattr(result, name)).all(), name
        assert np.isfinite(evaluation.adjoint_field).all()

    # A solve without a workspace hands out its fields read in full.
    sim = Simulation(device.grid, device.eps_with_design(density), device.specs[0].wavelength,
                     device.geometry.ports, engine=engine)
    result = sim.solve(device.specs[0].source_port)
    for name in ("ez", "hx", "hy"):
        value = vars(result)[name]
        assert isinstance(value, np.ndarray) and np.isfinite(value).all(), name
