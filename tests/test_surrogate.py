"""Tests for the neural-surrogate integration (gradient methods + neural backend).

The key correctness test uses an *oracle model*: a Module whose forward pass
reconstructs the permittivity and source from the standardized input and calls
the exact FDFD solver.  Plugging the oracle into the surrogate machinery must
reproduce the numerical transmissions and adjoint gradients almost exactly,
which pins down all the scaling conventions (field scale, source amplitude,
adjoint ``1/(i omega)`` factor) without requiring a trained network.
"""

import copy

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.constants import wavelength_to_omega
from repro.data.labels import field_target, standardize_input
from repro.fdfd.grid import Grid
from repro.fdfd.solver import FdfdSolver
from repro.invdes import InverseDesignProblem
from repro.invdes.adjoint import evaluate_spec
from repro.nn.module import Module
from repro.surrogate import (
    GRADIENT_METHODS,
    NeuralFieldBackend,
    compute_gradient,
    gradient_ad_black_box,
    gradient_ad_pred_field,
    gradient_fwd_adj_field,
    gradient_numerical,
)
from repro.train.models import make_model
from repro.train.trainer import predict
from repro.utils.numerics import cosine_similarity

_EPS_MAX = 12.25


class OracleFieldModel(Module):
    """A 'perfect surrogate': decodes the standardized input and solves FDFD."""

    def __init__(self, grid: Grid, wavelength: float, field_scale: float):
        super().__init__()
        self.grid = grid
        self.omega = wavelength_to_omega(wavelength)
        self.wavelength = wavelength
        self.field_scale = field_scale

    def forward(self, x):
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        outputs = []
        for sample in data:
            eps = sample[0] * _EPS_MAX
            source = sample[1] + 1j * sample[2]
            solver = FdfdSolver(self.grid, self.omega)
            ez = solver.solve(eps, source).ez
            outputs.append(field_target(ez, self.field_scale, source=source))
        return Tensor(np.stack(outputs, axis=0))


@pytest.fixture(scope="module")
def oracle_setup(tiny_bend):
    density = np.clip(
        0.5 + 0.2 * np.random.default_rng(0).normal(size=tiny_bend.design_shape), 0, 1
    )
    spec = tiny_bend.specs[0]
    field_scale = 1e-6
    oracle = OracleFieldModel(tiny_bend.grid, spec.wavelength, field_scale)
    return tiny_bend, density, spec, oracle, field_scale


class TestOracleConsistency:
    def test_neural_backend_matches_numerical_transmission(self, oracle_setup):
        device, density, spec, oracle, field_scale = oracle_setup
        exact = evaluate_spec(device, density, spec, compute_gradient=False)
        backend = NeuralFieldBackend(oracle, field_scale)
        surrogate = evaluate_spec(
            device, density, spec, backend=backend, compute_gradient=False
        )
        assert surrogate.transmissions["out"] == pytest.approx(
            exact.transmissions["out"], rel=1e-6
        )
        assert surrogate.objective_value == pytest.approx(exact.objective_value, rel=1e-6)

    def test_fwd_adj_gradient_matches_numerical_with_oracle(self, oracle_setup):
        device, density, spec, oracle, field_scale = oracle_setup
        truth = gradient_numerical(device, density, spec)
        estimate = gradient_fwd_adj_field(oracle, field_scale, device, density, spec)
        assert cosine_similarity(estimate, truth) > 0.999
        np.testing.assert_allclose(estimate, truth, rtol=1e-4, atol=1e-12)

    def test_oracle_backend_drives_inverse_design(self, oracle_setup):
        device, density, spec, oracle, field_scale = oracle_setup
        problem = InverseDesignProblem(device, backend=NeuralFieldBackend(oracle, field_scale))
        theta = problem.initial_theta("waveguide")
        fom, grad = problem.value_and_grad(theta)
        exact_fom, exact_grad = InverseDesignProblem(device).value_and_grad(theta)
        assert fom == pytest.approx(exact_fom, rel=1e-6)
        assert cosine_similarity(grad, exact_grad) > 0.999


class TestGradientMethodsWithRealModels:
    @pytest.fixture(scope="class")
    def untrained_models(self):
        field_model = make_model("fno", width=8, modes=(4, 4), depth=2, rng=0)
        black_box = make_model("blackbox", width=8, rng=0)
        return field_model, black_box

    def test_all_methods_return_design_shaped_gradients(self, oracle_setup, untrained_models):
        device, density, spec, _, _ = oracle_setup
        field_model, black_box = untrained_models
        for method in GRADIENT_METHODS:
            grad = compute_gradient(
                method,
                device,
                density,
                spec,
                field_model=field_model,
                field_scale=1e-6,
                black_box_model=black_box,
            )
            assert grad.shape == device.design_shape
            assert np.all(np.isfinite(grad))

    def test_ad_pred_field_gradient_nonzero(self, oracle_setup, untrained_models):
        device, density, spec, _, _ = oracle_setup
        field_model, _ = untrained_models
        grad = gradient_ad_pred_field(field_model, 1e-6, device, density, spec)
        assert np.abs(grad).max() > 0

    def test_ad_black_box_gradient_nonzero(self, oracle_setup, untrained_models):
        device, density, spec, _, _ = oracle_setup
        _, black_box = untrained_models
        grad = gradient_ad_black_box(black_box, device, density, spec)
        assert np.abs(grad).max() > 0

    def test_dispatch_validation(self, oracle_setup):
        device, density, spec, _, _ = oracle_setup
        with pytest.raises(ValueError):
            compute_gradient("fwd_adj_field", device, density, spec)
        with pytest.raises(ValueError):
            compute_gradient("ad_black_box", device, density, spec)
        with pytest.raises(ValueError):
            compute_gradient("unknown", device, density, spec)

    def test_numerical_dispatch(self, oracle_setup):
        device, density, spec, _, _ = oracle_setup
        grad = compute_gradient("numerical", device, density, spec)
        np.testing.assert_allclose(grad, gradient_numerical(device, density, spec))


class TestEvaluation:
    def test_evaluate_model_reports_metric_triple(self, tiny_splits):
        from repro.train.evaluation import evaluate_model

        train, test = tiny_splits
        model = make_model("fno", width=8, modes=(4, 4), depth=2, rng=0)
        metrics = evaluate_model(model, train, test, num_gradient_samples=1, rng=0)
        assert set(metrics) == {"train_n_l2", "test_n_l2", "grad_similarity"}
        assert np.isfinite(metrics["train_n_l2"])
        assert -1.0 <= metrics["grad_similarity"] <= 1.0

    def test_oracle_model_scores_perfectly(self, tiny_splits, tiny_bend):
        from repro.train.evaluation import field_prediction_error

        train, _ = tiny_splits
        oracle = OracleFieldModel(
            tiny_bend.grid, tiny_bend.specs[0].wavelength, train.field_scale
        )
        assert field_prediction_error(oracle, train) < 1e-9


_ZOO_KWARGS = {
    "fno": dict(width=8, modes=(4, 4), depth=2),
    "ffno": dict(width=8, modes=(4, 4), depth=2),
    "unet": dict(base_width=8),
    "neurolight": dict(width=8, modes=(4, 4), depth=2),
    "blackbox": dict(width=8),
}


def _float64_copy(model: Module) -> Module:
    """``model`` with its parameters upcast to float64: the float64 reference."""
    double = copy.deepcopy(model)
    for param in double.parameters():
        param.data = param.data.astype(np.float64)
    return double


class TestFloat32Surrogates:
    """The zoo computes in float32; surrogate outputs leave in float64/complex128.

    Over three seeds the largest deviations from a float64 copy measured
    1.3e-5 (forward) and 7.4e-6 (input gradient), both NeurOLight, whose
    wave prior is built in float32 too; the bounds sit ~8x and ~13x above.
    """

    @pytest.mark.parametrize("name", sorted(_ZOO_KWARGS))
    def test_forward_matches_float64_copy(self, oracle_setup, name):
        device, density, spec, _, _ = oracle_setup
        sim = device.simulation(density)
        source = sim.mode_source(spec.source_port, spec.source_mode)
        inputs = standardize_input(sim.eps_r, source, sim.wavelength, sim.grid.dl)
        model = make_model(name, rng=0, **_ZOO_KWARGS[name])
        single = predict(model, inputs[None])
        double = predict(_float64_copy(model), inputs[None])
        assert single.dtype == np.float32 and double.dtype == np.float64
        assert np.abs(single - double).max() <= 1e-4 * np.abs(double).max()

    @pytest.mark.parametrize("name", sorted(_ZOO_KWARGS))
    def test_input_gradients_are_float64_and_match(self, oracle_setup, name):
        device, density, spec, _, _ = oracle_setup
        model = make_model(name, rng=0, **_ZOO_KWARGS[name])

        def gradient(m):
            if name == "blackbox":
                return gradient_ad_black_box(m, device, density, spec)
            return gradient_ad_pred_field(m, 1e-6, device, density, spec)

        single, double = gradient(model), gradient(_float64_copy(model))
        assert single.dtype == np.float64
        assert np.abs(single - double).max() <= 1e-4 * np.abs(double).max()

    def test_predicted_fields_are_complex128(self, oracle_setup):
        device, density, spec, _, _ = oracle_setup
        backend = NeuralFieldBackend(make_model("fno", rng=0, **_ZOO_KWARGS["fno"]), 1e-6)
        sim = device.simulation(density)
        source = sim.mode_source(spec.source_port, spec.source_mode)
        assert backend.predict_field(sim, source).dtype == np.complex128
