"""Kerr nonlinear tier: convergence properties, stats scoping, adjoint, data axis.

Property-style guarantees of :mod:`repro.fdfd.nonlinear`:

* damped iterations decrease the true nonlinear residual monotonically;
* past the stable-power threshold the solve raises a loud
  :class:`ConvergenceError` (with its stats attached) instead of returning
  silently wrong fields;
* iteration counts and residual histories are deterministic for fixed seeds;
* per-solve engine counters are scoped (the seam-bug regression: cumulative
  engine/cache stats used to bleed into per-outer-iteration readings);
* adjoint gradients flow *through* the converged fixed point (validated
  against finite differences via the shared ``tests/helpers/fd_grad``);
* the chi3/intensity data axis stamps shard fingerprints without disturbing
  linear artifacts.
"""

import numpy as np
import pytest

from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.data.labels import extract_labels_batch
from repro.data.shards import plan_shards, shard_fingerprint
from repro.devices import make_device
from repro.fdfd.engine import (
    CacheStats,
    RecycleStats,
    make_engine,
    scoped_stats,
)
from repro.fdfd.nonlinear import (
    ConvergenceError,
    KerrNonlinearity,
    KerrSolver,
    NonlinearSimulation,
)
from repro.fdfd.simulation import Simulation
from repro.invdes.adjoint import Sweep, evaluate_specs
from repro.invdes.problem import InverseDesignProblem
from tests.conftest import TINY_DEVICE_KWARGS
from tests.helpers.fd_grad import assert_gradient_matches_fd, central_difference

KERR_KWARGS = dict(TINY_DEVICE_KWARGS)


@pytest.fixture(scope="module")
def kerr_switch():
    return make_device("kerr_switch", **KERR_KWARGS)


@pytest.fixture(scope="module")
def kerr_limiter():
    return make_device("kerr_limiter", **KERR_KWARGS)


def _uniform_eps(device, value: float = 0.5):
    return device.eps_with_design(np.full(device.geometry.design_shape, value))


def _solve(device, eps, power, method="born", engine=None, **kwargs):
    spec = device.specs[0]
    sim = NonlinearSimulation(
        device.grid,
        eps,
        spec.wavelength,
        device.geometry.ports,
        chi3=device.chi3_map(),
        engine=engine,
        source_scale=float(power),
        method=method,
        **kwargs,
    )
    result = sim.solve(spec.source_port, monitor_ports=spec.monitored_ports())
    return sim, result


class TestConvergenceProperties:
    @pytest.mark.parametrize("power", [1.0, 3.0, 6.0])
    @pytest.mark.parametrize("method", ["born", "newton"])
    def test_residuals_decrease_monotonically(self, kerr_switch, power, method):
        """Backtracking damping only ever accepts residual-decreasing steps."""
        sim, _ = _solve(kerr_switch, _uniform_eps(kerr_switch), power, method=method)
        stats = sim.last_stats[0]
        assert stats.converged
        assert len(stats.residuals) == stats.iterations + 1
        for before, after in zip(stats.residuals, stats.residuals[1:]):
            assert after < before

    def test_newton_takes_fewer_outer_iterations(self, kerr_switch):
        eps = _uniform_eps(kerr_switch)
        born_sim, _ = _solve(kerr_switch, eps, 3.0, method="born")
        newton_sim, _ = _solve(kerr_switch, eps, 3.0, method="newton")
        assert (
            newton_sim.last_stats[0].iterations <= born_sim.last_stats[0].iterations
        )

    @pytest.mark.parametrize("method", ["born", "newton"])
    def test_loud_failure_past_power_threshold(self, kerr_switch, method):
        """No silent wrong fields: unstable powers raise with stats attached."""
        with pytest.raises(ConvergenceError) as excinfo:
            _solve(
                kerr_switch,
                _uniform_eps(kerr_switch),
                30.0,
                method=method,
                max_iterations=30,
            )
        stats = excinfo.value.stats
        assert not stats.converged
        assert stats.residuals  # the history survives for post-mortems
        assert stats.damping_events > 0 or stats.iterations > 0

    @pytest.mark.parametrize("power", [1.0, 3.0])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_deterministic_iteration_counts(self, kerr_switch, power, seed):
        """Identical problems converge along bit-identical trajectories."""
        density = np.random.default_rng(seed).uniform(0.3, 0.7, kerr_switch.design_shape)
        eps = kerr_switch.eps_with_design(density)
        first, _ = _solve(kerr_switch, eps, power)
        second, _ = _solve(kerr_switch, eps, power)
        a, b = first.last_stats[0], second.last_stats[0]
        assert a.iterations == b.iterations
        assert a.inner_solves == b.inner_solves
        assert a.damping_events == b.damping_events
        assert a.residuals == b.residuals

    def test_inexact_inner_engine_terminates_via_step_criterion(self, kerr_switch):
        """A loose inner tier converges by field stationarity, not residual.

        The recycled engine at its default 1e-6 tolerance cannot push the
        nonlinear residual to 1e-8; without the update-size criterion the
        loop would backtrack to the damping floor and raise spuriously.
        """
        sim, _ = _solve(
            kerr_switch,
            _uniform_eps(kerr_switch),
            1.0,
            engine=make_engine("recycled"),
            rtol=1e-8,
        )
        assert sim.last_stats[0].converged

    def test_invalid_method_rejected(self, kerr_switch):
        with pytest.raises(ValueError, match="unknown nonlinear method"):
            KerrSolver(kerr_switch.grid, 1.0, method="picard")

    def test_zero_source_rejected(self, kerr_switch):
        solver = KerrSolver(kerr_switch.grid, 1.0)
        with pytest.raises(ValueError, match="non-zero source"):
            solver.solve(
                np.ones(kerr_switch.grid.shape),
                0.0,
                np.zeros(kerr_switch.grid.shape),
            )


class TestNonlinearSimulation:
    def test_workspace_rejected(self, kerr_switch):
        from repro.fdfd.engine import SolveWorkspace
        from repro.fdfd.simulation import ExcitationSpec

        spec = kerr_switch.specs[0]
        sim = NonlinearSimulation(
            kerr_switch.grid,
            _uniform_eps(kerr_switch),
            spec.wavelength,
            kerr_switch.geometry.ports,
            chi3=kerr_switch.chi3_map(),
        )
        with pytest.raises(ValueError, match="workspace"):
            sim.solve_multi(
                [ExcitationSpec(spec.source_port)], workspace=SolveWorkspace()
            )

    def test_transmissions_power_invariant_in_linear_limit(self, kerr_switch):
        """The normalization rescales with the injected power: at chi3 = 0
        transmissions are fractions of input power, independent of scale."""
        eps = _uniform_eps(kerr_switch)
        spec = kerr_switch.specs[0]

        def transmissions(scale):
            sim = NonlinearSimulation(
                kerr_switch.grid,
                eps,
                spec.wavelength,
                kerr_switch.geometry.ports,
                chi3=0.0,
                source_scale=scale,
            )
            return sim.solve(spec.source_port).transmissions

        low, high = transmissions(1.0), transmissions(4.0)
        for port, value in low.items():
            assert high[port] == pytest.approx(value, rel=1e-9)

    def test_kerr_transfer_is_power_dependent(self, kerr_limiter):
        """The point of the tier: with chi3 on, transmission depends on power."""
        eps = _uniform_eps(kerr_limiter)
        _, low = _solve(kerr_limiter, eps, 1.0)
        _, high = _solve(kerr_limiter, eps, 6.0)
        assert abs(high.transmissions["out"] - low.transmissions["out"]) > 1e-3

    def test_maxwell_residual_uses_effective_permittivity(self, kerr_limiter):
        eps = _uniform_eps(kerr_limiter)
        sim, result = _solve(kerr_limiter, eps, 3.0)
        nonlinear_residual = sim.maxwell_residual(result)
        assert nonlinear_residual < 1e-6
        # The same field does NOT satisfy the linear operator: the gap is
        # exactly the Kerr term the fixed point converged.
        linear = Simulation(
            kerr_limiter.grid,
            eps,
            kerr_limiter.specs[0].wavelength,
            kerr_limiter.geometry.ports,
        )
        assert linear.maxwell_residual(result) > 100 * nonlinear_residual

    def test_solve_multi_converges_each_excitation_separately(self, kerr_switch):
        spec = kerr_switch.specs[0]
        sim = NonlinearSimulation(
            kerr_switch.grid,
            _uniform_eps(kerr_switch),
            spec.wavelength,
            kerr_switch.geometry.ports,
            chi3=kerr_switch.chi3_map(),
        )
        results = sim.solve_multi([(spec.source_port, 0), (spec.source_port, 0)])
        assert len(results) == len(sim.last_stats) == 2
        assert np.array_equal(results[0].ez, results[1].ez)


class TestStatsScoping:
    """Regression tests for the seam bug: per-solve stats must not inherit
    (or corrupt) the engine's cumulative counters."""

    def test_reset_zeros_counters_and_keeps_gauges(self):
        stats = CacheStats(hits=3, misses=2, current_bytes=512)
        stats.reset()
        assert stats.hits == 0 and stats.misses == 0
        assert stats.current_bytes == 512  # a gauge, not a tally

    def test_merge_sums_counters_and_overwrites_gauges(self):
        total = CacheStats(hits=10, current_bytes=100)
        recent = CacheStats(hits=2, current_bytes=64)
        total.merge(recent)
        assert total.hits == 12
        assert total.current_bytes == 64

    def test_merge_rejects_mismatched_types(self):
        with pytest.raises(TypeError, match="cannot merge"):
            CacheStats().merge(RecycleStats())

    def test_scoped_stats_isolates_and_restores(self):
        engine = make_engine("recycled")
        engine.stats.factorizations = 5
        with scoped_stats(engine) as (scope,):
            assert scope.factorizations == 0
            engine.stats.recycled_solves += 3
        assert engine.stats.factorizations == 5
        assert engine.stats.recycled_solves == 3

    def test_scoped_stats_restores_on_error(self):
        engine = make_engine("recycled")
        engine.stats.exact_solves = 2
        with pytest.raises(RuntimeError, match="boom"):
            with scoped_stats(engine):
                engine.stats.exact_solves += 1
                raise RuntimeError("boom")
        assert engine.stats.exact_solves == 3  # scoped work folded back in

    def test_scoped_stats_rejects_statless_holders(self):
        with pytest.raises(TypeError, match="no resettable stats"):
            with scoped_stats(object()):
                pass

    def test_nonlinear_solves_report_per_solve_counters(self, kerr_switch):
        """Two consecutive solves each see only their own inner work, while
        the engine's cumulative counters keep the running total."""
        engine = make_engine("recycled")
        eps = _uniform_eps(kerr_switch)
        first_sim, _ = _solve(kerr_switch, eps, 1.0, engine=engine)
        first = first_sim.last_stats[0].engine_stats["recycled"]
        second_sim, _ = _solve(kerr_switch, eps, 1.0, engine=engine)
        second = second_sim.last_stats[0].engine_stats["recycled"]
        total = first_sim.last_stats[0].inner_solves + second_sim.last_stats[0].inner_solves

        def solves(counters):
            return (
                counters["factorizations"]
                + counters["exact_solves"]
                + counters["recycled_solves"]
            )

        assert solves(first) + solves(second) == total  # scoped: no bleed
        assert first["factorizations"] == 1  # one reference LU, rest recycled
        assert second["factorizations"] == 0  # second solve reuses the reference
        cumulative = engine.stats
        assert (
            cumulative.factorizations
            + cumulative.exact_solves
            + cumulative.recycled_solves
            == total
        )


class TestNonlinearAdjoint:
    @pytest.mark.parametrize("device_name", ["kerr_switch", "kerr_limiter"])
    def test_gradient_matches_finite_difference(self, device_name):
        device = make_device(device_name, **KERR_KWARGS)
        density = np.random.default_rng(5).uniform(0.3, 0.7, device.design_shape)
        nonlinearity = KerrNonlinearity(rtol=1e-10)
        spec_index = len(device.specs) - 1  # the high-power (most nonlinear) spec
        evaluation = evaluate_specs(
            device,
            density,
            specs=[device.specs[spec_index]],
            sweep=Sweep(nonlinearity=nonlinearity),
        )[0]
        assert evaluation.nonlinear_stats is not None

        def value(d):
            return evaluate_specs(
                device,
                d,
                specs=[device.specs[spec_index]],
                sweep=Sweep(nonlinearity=nonlinearity),
                compute_gradient=False,
            )[0].objective_value

        assert_gradient_matches_fd(
            value, density, evaluation.grad_density, rng=1, step=1e-4, rel=1e-3
        )

    def test_chi3_zero_gradient_matches_linear(self, kerr_switch):
        density = np.random.default_rng(6).uniform(0.3, 0.7, kerr_switch.design_shape)
        linear = evaluate_specs(kerr_switch, density)
        nonlinear = evaluate_specs(
            kerr_switch, density, sweep=Sweep(nonlinearity=KerrNonlinearity(chi3=0.0))
        )
        for lin, non in zip(linear, nonlinear):
            np.testing.assert_allclose(
                non.grad_density, lin.grad_density, rtol=1e-6, atol=1e-12
            )
            assert non.objective_value == pytest.approx(lin.objective_value, abs=1e-10)

    def test_problem_chain_with_nonlinearity(self, kerr_limiter):
        problem = InverseDesignProblem(
            kerr_limiter, nonlinearity=KerrNonlinearity(rtol=1e-10)
        )
        theta = problem.initial_theta("uniform")
        fom, grad = problem.value_and_grad(theta)
        assert np.isfinite(fom)
        assert grad.shape == theta.shape
        index = (theta.shape[0] // 2, theta.shape[1] // 2)
        numeric = central_difference(problem.figure_of_merit, theta, index, step=1e-3)
        assert grad[index] == pytest.approx(numeric, rel=5e-2, abs=1e-7)


class TestNonlinearDataAxis:
    def test_labels_carry_nonlinear_extras(self, kerr_limiter):
        density = np.full(kerr_limiter.design_shape, 0.5)
        labels = extract_labels_batch(
            kerr_limiter,
            density,
            sweep=Sweep(nonlinearity=KerrNonlinearity(), intensities=[0.5, 2.0]),
            with_gradient=False,
        )
        assert len(labels) == 2 * len(kerr_limiter.specs)  # intensity-major
        for label in labels:
            assert label.extras["chi3"] == kerr_limiter.chi3
            assert label.extras["nonlinear_iterations"] >= 0
            assert label.maxwell_residual < 1e-6
        # the power state multiplies the intensity axis
        scales = [label.extras["source_scale"] for label in labels]
        assert scales == [
            0.5 * kerr_limiter.specs[0].state["power"],
            0.5 * kerr_limiter.specs[1].state["power"],
            2.0 * kerr_limiter.specs[0].state["power"],
            2.0 * kerr_limiter.specs[1].state["power"],
        ]

    def test_intensities_require_nonlinearity(self, kerr_limiter):
        with pytest.raises(ValueError, match="intensities"):
            extract_labels_batch(
                kerr_limiter,
                np.full(kerr_limiter.design_shape, 0.5),
                sweep=Sweep(intensities=[1.0]),
            )

    def test_fingerprints_stamp_chi3_only_when_nonlinear(self):
        """Linear artifact fingerprints must not move; nonlinear ones must."""
        densities = [np.full((14, 14), 0.5)]
        stages = ["random"]
        base = GeneratorConfig(device_name="kerr_limiter", num_designs=1, shard_size=1)
        spec = plan_shards(base, num_designs=1)[0]
        fp_linear = shard_fingerprint(base, spec, densities, stages, [1.0])
        nonlinear = GeneratorConfig(
            device_name="kerr_limiter",
            num_designs=1,
            shard_size=1,
            sweep=Sweep(nonlinearity=KerrNonlinearity(chi3=1.1e8)),
        )
        fp_nonlinear = shard_fingerprint(nonlinear, spec, densities, stages, [1.0])
        swept = GeneratorConfig(
            device_name="kerr_limiter",
            num_designs=1,
            shard_size=1,
            sweep=Sweep(
                nonlinearity=KerrNonlinearity(chi3=1.1e8), intensities=(1.0, 2.0)
            ),
        )
        fp_swept = shard_fingerprint(swept, spec, densities, stages, [1.0])
        assert fp_linear != fp_nonlinear != fp_swept

    def test_generator_config_validation(self):
        with pytest.raises(ValueError, match="intensities"):
            DatasetGenerator(GeneratorConfig(sweep=Sweep(intensities=(1.0,))))
        with pytest.raises(ValueError, match="cannot be combined"):
            DatasetGenerator(
                GeneratorConfig(
                    sweep=Sweep(
                        nonlinearity=KerrNonlinearity(chi3=1.0), wavelengths=(1.55,)
                    ),
                    with_gradient=False,
                )
            )

    def test_nonlinear_dataset_generation_and_resume(self, tmp_path, kerr_limiter):
        config = GeneratorConfig(
            device_name="kerr_limiter",
            strategy="random",
            num_designs=2,
            seed=1,
            sweep=Sweep(nonlinearity=KerrNonlinearity(chi3=kerr_limiter.chi3)),
            device_kwargs=KERR_KWARGS,
            shard_dir=str(tmp_path),
            shard_size=1,
        )
        first = DatasetGenerator(config).generate()
        second = DatasetGenerator(config).generate()
        assert len(first) == len(second) == 2 * len(kerr_limiter.specs)
        assert first.metadata["chi3"] == kerr_limiter.chi3
        for a, b in zip(first.samples, second.samples):
            assert np.array_equal(a.eps_r, b.eps_r)
            assert np.array_equal(a.adjoint_gradient, b.adjoint_gradient)
