"""Tests for MAPS-InvDes: objectives, adjoint gradients, optimization, robustness."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.fabrication import EtchModel, FabricationCorner, LithographyModel, WavelengthDrift
from repro.fabrication.corners import standard_corners
from repro.invdes import (
    AdjointOptimizer,
    InverseDesignProblem,
    RobustInverseDesignProblem,
    evaluate_spec,
    initial_density,
)
from repro.fdfd.engine import resolve_engine
from repro.invdes.adjoint import NumericalFieldBackend, evaluate_all_specs
from repro.invdes.objectives import objective_for_spec
from repro.parametrization.transforms import (
    BinarizationProjection,
    BlurTransform,
    TransformPipeline,
)
from tests.helpers.fd_grad import assert_gradient_matches_fd, central_difference


@pytest.fixture(scope="module")
def bend_density(tiny_bend):
    rng = np.random.default_rng(3)
    return np.clip(0.5 + 0.15 * rng.normal(size=tiny_bend.design_shape), 0.0, 1.0)


class TestAdjointGradients:
    @pytest.mark.parametrize("kind", ["mode", "flux"])
    def test_adjoint_matches_finite_difference(self, tiny_bend, bend_density, kind):
        spec = tiny_bend.specs[0]
        objective = objective_for_spec(spec, kind=kind)
        evaluation = evaluate_spec(tiny_bend, bend_density, spec, objective=objective)

        def value(density):
            return evaluate_spec(
                tiny_bend, density, spec, objective=objective, compute_gradient=False
            ).objective_value

        assert_gradient_matches_fd(
            value, bend_density, evaluation.grad_density, rng=0, step=1e-4, rel=1e-3
        )

    def test_gradient_shape(self, tiny_bend, bend_density):
        evaluation = evaluate_spec(tiny_bend, bend_density, tiny_bend.specs[0])
        assert evaluation.grad_density.shape == tiny_bend.design_shape

    def test_skip_gradient_flag(self, tiny_bend, bend_density):
        evaluation = evaluate_spec(
            tiny_bend, bend_density, tiny_bend.specs[0], compute_gradient=False
        )
        assert np.allclose(evaluation.grad_density, 0.0)
        assert evaluation.adjoint_field is None

    def test_evaluate_all_specs_normalization(self, tiny_bend, bend_density):
        fom, grad, evaluations = evaluate_all_specs(tiny_bend, bend_density)
        assert len(evaluations) == len(tiny_bend.specs)
        assert grad.shape == tiny_bend.design_shape
        assert -1.0 <= fom <= 1.5

    def test_crossing_negative_weights_penalize_crosstalk(self, tiny_crossing, bend_density):
        density = np.clip(
            np.resize(bend_density, tiny_crossing.design_shape).astype(float), 0, 1
        )
        spec = tiny_crossing.specs[0]
        evaluation = evaluate_spec(tiny_crossing, density, spec, compute_gradient=False)
        assert set(evaluation.transmissions) == set(spec.monitored_ports())


class TestProblem:
    def test_value_and_grad_through_full_chain(self, tiny_bend):
        """Finite-difference check through parametrization + transforms + adjoint."""
        problem = InverseDesignProblem(
            tiny_bend,
            transforms=TransformPipeline([BlurTransform(1.2), BinarizationProjection(beta=4.0)]),
        )
        theta = problem.initial_theta("uniform")
        fom, grad = problem.value_and_grad(theta)
        assert grad.shape == theta.shape
        index = (theta.shape[0] // 2, theta.shape[1] // 2)
        numeric = central_difference(problem.figure_of_merit, theta, index, step=1e-3)
        assert grad[index] == pytest.approx(numeric, rel=5e-2, abs=1e-7)

    def test_density_from_theta_in_unit_range(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend)
        density = problem.density_from_theta(problem.initial_theta("random", rng=0))
        assert density.min() >= 0.0 and density.max() <= 1.0
        assert density.shape == tiny_bend.design_shape

    def test_set_binarization_beta(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend)
        problem.set_binarization_beta(32.0)
        betas = [t.beta for t in problem.transforms if isinstance(t, BinarizationProjection)]
        assert betas == [32.0]

    def test_transmission_labels_present(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend)
        evaluation = problem.evaluate(problem.initial_theta("waveguide"), compute_gradient=False)
        assert any(key.endswith("->out") for key in evaluation.transmissions)


class TestOptimizer:
    def test_optimization_improves_fom(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend)
        optimizer = AdjointOptimizer(problem, learning_rate=0.2)
        trajectory = optimizer.run(
            theta0=problem.initial_theta("waveguide"), iterations=8
        )
        assert len(trajectory) == 9
        assert trajectory.best().fom > trajectory[0].fom
        assert trajectory.best().fom > 0.3

    def test_trajectory_records_densities_and_foms(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend)
        trajectory = AdjointOptimizer(problem, learning_rate=0.2).run(
            theta0=problem.initial_theta("uniform"), iterations=3
        )
        assert trajectory.foms.shape == (4,)
        assert all(p.density.shape == tiny_bend.design_shape for p in trajectory)

    def test_beta_schedule_applied(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend)
        optimizer = AdjointOptimizer(problem, learning_rate=0.2, beta_schedule={1: 24.0})
        optimizer.run(theta0=problem.initial_theta("uniform"), iterations=2)
        betas = [t.beta for t in problem.transforms if isinstance(t, BinarizationProjection)]
        assert betas == [24.0]

    def test_loop_runs_at_one_blas_thread_in_a_fresh_process(self):
        """The callback sees one OpenBLAS thread; the caller's count comes back.

        A fresh process, so no pin or pool of another test shapes the counts.
        """
        script = textwrap.dedent(
            """
            import json
            import numpy.linalg, scipy.linalg  # both bundled OpenBLAS copies
            from repro.devices.factory import make_device
            from repro.invdes import AdjointOptimizer, InverseDesignProblem
            from repro.utils.executor import _openblas_thread_calls

            calls = _openblas_thread_calls()
            for set_num_threads, _ in calls:
                set_num_threads(2)  # a caller running several BLAS threads
            counts = lambda *_: [get_num_threads() for _, get_num_threads in calls]
            caller = counts()
            seen = []
            device = make_device("bending", fidelity="low", domain=3.0, design_size=1.4)
            problem = InverseDesignProblem(device)
            AdjointOptimizer(problem, learning_rate=0.2).run(
                problem.initial_theta("waveguide"),
                iterations=2,
                callback=lambda *args: seen.append(counts(*args)),
            )
            print(json.dumps({"caller": caller, "seen": seen, "after": counts()}))
            """
        )
        repo = Path(__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join([str(repo / "src"), env.get("PYTHONPATH", "")])
        child = subprocess.run(
            [sys.executable, "-c", script],
            cwd=str(repo),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stdout + child.stderr
        counts = json.loads(child.stdout.strip().splitlines()[-1])
        if not counts["caller"]:
            pytest.skip("no OpenBLAS loaded in the child process")
        assert counts["seen"] == [[1] * len(counts["caller"])] * 2
        assert counts["after"] == counts["caller"]

    def test_callback_invoked(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend)
        seen = []
        AdjointOptimizer(problem, learning_rate=0.2).run(
            theta0=problem.initial_theta("uniform"),
            iterations=2,
            callback=lambda i, ev: seen.append(i),
        )
        assert seen == [0, 1]

    def test_invalid_learning_rate(self, tiny_bend):
        with pytest.raises(ValueError):
            AdjointOptimizer(InverseDesignProblem(tiny_bend), learning_rate=0.0)

    def test_empty_trajectory_best_raises(self):
        from repro.invdes.optimizer import OptimizationTrajectory

        with pytest.raises(ValueError):
            OptimizationTrajectory().best()


class TestInitialization:
    def test_uniform(self, tiny_bend):
        density = initial_density(tiny_bend, "uniform", value=0.3)
        np.testing.assert_allclose(density, 0.3)

    def test_random_reproducible(self, tiny_bend):
        a = initial_density(tiny_bend, "random", rng=5)
        b = initial_density(tiny_bend, "random", rng=5)
        np.testing.assert_allclose(a, b)

    def test_waveguide_connects_ports(self, tiny_bend):
        density = initial_density(tiny_bend, "waveguide")
        assert density.max() == pytest.approx(1.0)
        assert density.mean() > 0.2

    def test_waveguide_init_outperforms_uniform(self, tiny_bend):
        uniform_fom = tiny_bend.figure_of_merit(initial_density(tiny_bend, "uniform"))
        waveguide_fom = tiny_bend.figure_of_merit(initial_density(tiny_bend, "waveguide"))
        assert waveguide_fom > uniform_fom

    def test_unknown_kind_rejected(self, tiny_bend):
        with pytest.raises(ValueError):
            initial_density(tiny_bend, "spiral")


class TestVariationAware:
    @pytest.fixture(scope="class")
    def small_corners(self):
        litho = LithographyModel(blur_sigma_cells=1.0)
        return [
            FabricationCorner(name="nominal", pattern_transforms=[litho], weight=2.0),
            FabricationCorner(name="over_etch", pattern_transforms=[litho, EtchModel(1.0)]),
            FabricationCorner(
                name="wavelength_drift",
                pattern_transforms=[litho],
                wavelength_drift=WavelengthDrift(0.01),
            ),
        ]

    def test_corner_foms_reported(self, tiny_bend, small_corners):
        robust = RobustInverseDesignProblem(
            InverseDesignProblem(tiny_bend), corners=small_corners
        )
        theta = robust.initial_theta("waveguide")
        foms = robust.corner_foms(theta)
        assert set(foms) == {"nominal", "over_etch", "wavelength_drift"}
        assert all(np.isfinite(v) for v in foms.values())

    def test_robust_evaluation_weighted_average(self, tiny_bend, small_corners):
        robust = RobustInverseDesignProblem(
            InverseDesignProblem(tiny_bend), corners=small_corners
        )
        theta = robust.initial_theta("waveguide")
        evaluation = robust.evaluate(theta, compute_gradient=False)
        foms = robust.corner_foms(theta)
        weights = {c.name: c.weight for c in small_corners}
        expected = sum(foms[n] * w for n, w in weights.items()) / sum(weights.values())
        assert evaluation.fom == pytest.approx(expected, rel=1e-6)

    def test_robust_gradient_shape(self, tiny_bend, small_corners):
        robust = RobustInverseDesignProblem(
            InverseDesignProblem(tiny_bend), corners=small_corners
        )
        theta = robust.initial_theta("uniform")
        fom, grad = robust.value_and_grad(theta)
        assert grad.shape == theta.shape
        assert np.isfinite(fom)

    def test_shared_graph_gradient_is_the_sum_of_corner_gradients(self, tiny_bend):
        """One design graph and one backward pass give the weighted sum of the
        per-corner problems' gradients (base plus corner pipeline, each with
        its own backward), a finite-difference-correct gradient and the same
        transmission keys."""
        base = InverseDesignProblem(tiny_bend)
        robust = RobustInverseDesignProblem(base, corners=standard_corners())
        rng = np.random.default_rng(5)
        theta = robust.initial_theta("waveguide")
        theta = theta + 0.3 * rng.normal(size=theta.shape)
        evaluation = robust.evaluate(theta)

        total = sum(corner.weight for corner in robust.corners)
        reference = np.zeros_like(theta)
        keys = []
        for corner in robust.corners:
            drift = corner.temperature_drift
            problem = InverseDesignProblem(
                tiny_bend,
                parametrization=base.parametrization,
                transforms=TransformPipeline([*base.transforms, *corner.pattern_transforms]),
                backend=NumericalFieldBackend(engine=base.backend.engine),
                eps_postprocess=drift.apply_eps if drift.delta_kelvin else None,
                wavelength_shift=corner.wavelength_drift.delta_um,
            )
            corner_evaluation = problem.evaluate(theta)
            reference += corner.weight / total * corner_evaluation.grad_theta
            keys += [f"{corner.name}:{key}" for key in corner_evaluation.transmissions]

        error = np.linalg.norm(evaluation.grad_theta - reference) / np.linalg.norm(reference)
        assert error <= 1e-12
        assert list(evaluation.transmissions) == keys
        assert keys == [f"{corner.name}:in->out" for corner in robust.corners]
        assert_gradient_matches_fd(
            robust.figure_of_merit, theta, evaluation.grad_theta, rng=1, step=1e-4, rel=1e-3
        )

    def test_corner_transform_prefixes_run_once(self, tiny_bend, monkeypatch):
        """The standard corners share one nominal lithography model: a step
        filters with 1 blur, 3 lithography and 2 etch models, not 16."""
        calls = {}
        for cls in (BlurTransform, LithographyModel, EtchModel):
            original = cls.apply

            def counted(self, density, cls=cls, original=original):
                calls[cls.__name__] = calls.get(cls.__name__, 0) + 1
                return original(self, density)

            monkeypatch.setattr(cls, "apply", counted)
        robust = RobustInverseDesignProblem(InverseDesignProblem(tiny_bend))
        theta = robust.initial_theta("waveguide")
        robust.evaluate(theta)
        assert calls == {"BlurTransform": 1, "LithographyModel": 3, "EtchModel": 2}
        calls.clear()
        foms = robust.corner_foms(theta)
        assert calls == {"BlurTransform": 1, "LithographyModel": 3, "EtchModel": 2}
        assert list(foms) == [corner.name for corner in robust.corners]

    def test_beta_schedule_edits_one_pipeline(self, tiny_bend):
        """A beta step edits the base pipeline and drops every corner's warm starts."""
        base = InverseDesignProblem(tiny_bend, engine="recycled")
        robust = RobustInverseDesignProblem(base)
        robust.evaluate(robust.initial_theta("waveguide"))
        workspaces = [problem.workspace for problem in robust._corner_problems]
        assert all(len(workspace) for workspace in workspaces)
        robust.set_binarization_beta(16.0)
        betas = [t.beta for t in base.transforms if isinstance(t, BinarizationProjection)]
        assert betas == [16.0]
        assert not any(len(problem.transforms) for problem in robust._corner_problems)
        assert not any(len(workspace) for workspace in workspaces)

    def test_empty_corner_list_rejected(self, tiny_bend):
        with pytest.raises(ValueError):
            RobustInverseDesignProblem(InverseDesignProblem(tiny_bend), corners=[])


def _region_recycled(device):
    return resolve_engine("recycled", design_region=device.geometry.design_slice)


class TestSolveWorkspaceWiring:
    """The warm-start workspace created per problem and threaded to the backend."""

    def test_problem_creates_and_shares_workspace(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend, engine="recycled")
        assert problem.workspace is not None
        assert problem.backend.workspace is problem.workspace

    def test_explicit_backend_adopts_problem_workspace(self, tiny_bend):
        from repro.invdes import NumericalFieldBackend

        backend = NumericalFieldBackend(engine=_region_recycled(tiny_bend))
        problem = InverseDesignProblem(tiny_bend, backend=backend)
        assert backend.workspace is problem.workspace

    def test_backend_with_workspace_is_adopted(self, tiny_bend):
        from repro.fdfd.engine import SolveWorkspace
        from repro.invdes import NumericalFieldBackend

        workspace = SolveWorkspace()
        backend = NumericalFieldBackend(engine=_region_recycled(tiny_bend), workspace=workspace)
        problem = InverseDesignProblem(tiny_bend, backend=backend)
        assert problem.workspace is workspace

    def test_evaluation_populates_workspace_for_warm_start_engine(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend, engine="recycled")
        problem.evaluate(problem.initial_theta("waveguide"), compute_gradient=True)
        # One forward and one adjoint field stored for the bend's single spec.
        assert len(problem.workspace) == 2

    def test_direct_engine_skips_workspace(self, tiny_bend):
        """Exact engines gain nothing from guesses; no fields are stored."""
        problem = InverseDesignProblem(tiny_bend)
        problem.evaluate(problem.initial_theta("waveguide"), compute_gradient=True)
        assert len(problem.workspace) == 0

    def test_set_binarization_beta_invalidates_workspace(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend, engine="recycled")
        problem.evaluate(problem.initial_theta("waveguide"), compute_gradient=True)
        assert len(problem.workspace) == 2
        problem.set_binarization_beta(16.0)
        assert len(problem.workspace) == 0
        assert problem.workspace.invalidations == 1

    def test_same_beta_does_not_invalidate(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend, engine="recycled")
        beta = next(
            t.beta for t in problem.transforms if isinstance(t, BinarizationProjection)
        )
        problem.evaluate(problem.initial_theta("waveguide"), compute_gradient=True)
        problem.set_binarization_beta(beta)
        assert len(problem.workspace) == 2

    def test_optimizer_resets_workspace_per_run(self, tiny_bend):
        problem = InverseDesignProblem(tiny_bend, engine="recycled")
        optimizer = AdjointOptimizer(problem, learning_rate=0.1)
        theta0 = problem.initial_theta("waveguide")
        optimizer.run(theta0=theta0, iterations=1)
        invalidations = problem.workspace.invalidations
        optimizer.run(theta0=theta0, iterations=1)
        assert problem.workspace.invalidations > invalidations


class TestRecycledOptimization:
    def test_recycled_run_tracks_direct_run(self, tiny_bend):
        """Same trajectory (FoMs within tolerance) at a fraction of the LUs."""
        theta0 = None
        trajectories = {}
        for engine in (None, "recycled"):
            problem = InverseDesignProblem(tiny_bend, engine=engine)
            if theta0 is None:
                theta0 = problem.initial_theta("waveguide")
            optimizer = AdjointOptimizer(problem, learning_rate=0.05)
            trajectories[engine] = optimizer.run(theta0=theta0, iterations=4)
            if engine == "recycled":
                stats = problem.backend.engine.stats
                assert stats.recycled_solves > 0
                assert stats.factorizations < 5
        np.testing.assert_allclose(
            trajectories["recycled"].foms, trajectories[None].foms, rtol=1e-4
        )

    def test_explicit_workspace_overrides_backend_workspace(self, tiny_bend):
        from repro.fdfd.engine import SolveWorkspace
        from repro.invdes import NumericalFieldBackend

        backend = NumericalFieldBackend(
            engine=_region_recycled(tiny_bend), workspace=SolveWorkspace()
        )
        mine = SolveWorkspace()
        problem = InverseDesignProblem(tiny_bend, backend=backend, workspace=mine)
        assert problem.workspace is mine
        assert backend.workspace is mine

    def test_robust_corners_do_not_share_warm_start_slots(self, tiny_bend):
        """Corners reuse the engine but each gets its own workspace."""
        corners = [
            FabricationCorner(name="nominal", weight=1.0),
            FabricationCorner(name="shifted", weight=1.0, wavelength_drift=WavelengthDrift(0.005)),
        ]
        base = InverseDesignProblem(tiny_bend, engine="recycled")
        robust = RobustInverseDesignProblem(base, corners=corners)
        workspaces = [p.workspace for p in robust._corner_problems]
        assert len({id(w) for w in workspaces + [base.workspace]}) == len(workspaces) + 1
        engines = {id(p.backend.engine) for p in robust._corner_problems}
        assert engines == {id(base.backend.engine)}
