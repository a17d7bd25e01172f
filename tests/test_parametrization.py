"""Tests for design parametrizations, differentiable transforms and pattern analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, check_gradient
from repro.autograd import functional as F
from repro.fabrication.lithography import _gaussian_kernel
from repro.parametrization import (
    BinarizationProjection,
    BlurTransform,
    DensityParametrization,
    LevelSetParametrization,
    MinimumFeatureSizeTransform,
    SymmetryTransform,
    TransformPipeline,
    binarization_level,
    minimum_feature_size,
)
from repro.parametrization.analysis import solid_fraction
from repro.parametrization.transforms import _conic_kernel, fixed_kernel_filter

densities = hnp.arrays(np.float64, (8, 9), elements=st.floats(0.0, 1.0))


class TestParametrizations:
    def test_density_range(self):
        param = DensityParametrization((4, 4))
        rho = param(Tensor(np.random.default_rng(0).normal(size=(4, 4)) * 10))
        assert rho.data.min() > 0.0 and rho.data.max() < 1.0

    def test_density_initial_theta_roundtrip(self):
        param = DensityParametrization((5, 5))
        target = np.random.default_rng(0).uniform(0.1, 0.9, (5, 5))
        theta = param.initial_theta(target)
        np.testing.assert_allclose(param(Tensor(theta)).data, target, atol=1e-6)

    def test_levelset_initial_theta_roundtrip(self):
        param = LevelSetParametrization((5, 5), interface_width=0.3)
        target = np.random.default_rng(1).uniform(0.1, 0.9, (5, 5))
        theta = param.initial_theta(target)
        np.testing.assert_allclose(param(Tensor(theta)).data, target, atol=1e-6)

    def test_levelset_circles_init(self):
        param = LevelSetParametrization((20, 20))
        phi = param.circles_init(num_circles=3, radius_cells=4.0, rng=0)
        rho = param(Tensor(phi)).data
        assert rho.max() > 0.6 and rho.min() < 0.4

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DensityParametrization((4, 4))(Tensor(np.zeros((3, 3))))
        with pytest.raises(ValueError):
            DensityParametrization((4,))
        with pytest.raises(ValueError):
            LevelSetParametrization((4, 4), interface_width=0.0)

    def test_parametrization_is_differentiable(self):
        param = DensityParametrization((4, 4))
        theta = Tensor(np.random.default_rng(0).normal(size=(4, 4)), requires_grad=True)
        assert check_gradient(lambda t: param(t), [theta]) < 1e-5


class TestTransforms:
    @given(densities)
    @settings(max_examples=15, deadline=None)
    def test_blur_preserves_range(self, density):
        out = BlurTransform(radius_cells=2.0)(Tensor(density)).data
        assert out.min() >= -1e-9 and out.max() <= 1.0 + 1e-9

    def test_blur_smooths_checkerboard(self):
        checker = np.indices((10, 10)).sum(axis=0) % 2
        out = BlurTransform(radius_cells=2.0)(Tensor(checker.astype(float))).data
        assert out.std() < checker.std()

    def test_blur_gradient(self):
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (6, 6)), requires_grad=True)
        assert check_gradient(lambda x: BlurTransform(1.5)(x), [x]) < 1e-5

    @given(densities, st.floats(2.0, 30.0))
    @settings(max_examples=15, deadline=None)
    def test_projection_range_and_monotonicity(self, density, beta):
        projection = BinarizationProjection(beta=beta)
        out = projection(Tensor(density)).data
        assert out.min() >= -1e-9 and out.max() <= 1.0 + 1e-9
        # Monotone in the input.
        shifted = projection(Tensor(np.clip(density + 0.05, 0, 1))).data
        assert (shifted - out).min() >= -1e-9

    def test_projection_sharpens(self):
        density = np.array([[0.35, 0.65]])
        soft = BinarizationProjection(beta=2.0)(Tensor(density)).data
        hard = BinarizationProjection(beta=30.0)(Tensor(density)).data
        assert binarization_level(hard) > binarization_level(soft)

    def test_projection_fixed_points(self):
        projection = BinarizationProjection(beta=10.0, eta=0.5)
        out = projection(Tensor(np.array([[0.0, 0.5, 1.0]]))).data
        assert out[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert out[0, 1] == pytest.approx(0.5, abs=0.05)
        assert out[0, 2] == pytest.approx(1.0, abs=1e-6)

    def test_projection_gradient(self):
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (5, 5)), requires_grad=True)
        assert check_gradient(lambda x: BinarizationProjection(beta=6.0)(x), [x]) < 1e-4

    def test_projection_with_beta(self):
        proj = BinarizationProjection(beta=4.0, eta=0.4)
        stronger = proj.with_beta(16.0)
        assert stronger.beta == 16.0 and stronger.eta == 0.4

    @pytest.mark.parametrize("axis", ["x", "y", "both"])
    def test_symmetry_enforced(self, axis):
        rng = np.random.default_rng(0)
        out = SymmetryTransform(axis=axis)(Tensor(rng.uniform(0, 1, (8, 8)))).data
        if axis in ("x", "both"):
            np.testing.assert_allclose(out, np.flip(out, axis=0), atol=1e-12)
        if axis in ("y", "both"):
            np.testing.assert_allclose(out, np.flip(out, axis=1), atol=1e-12)

    def test_symmetry_idempotent(self):
        rng = np.random.default_rng(1)
        transform = SymmetryTransform(axis="x")
        once = transform(Tensor(rng.uniform(0, 1, (6, 6)))).data
        twice = transform(Tensor(once)).data
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_symmetry_gradient(self):
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (6, 6)), requires_grad=True)
        assert check_gradient(lambda x: SymmetryTransform("both")(x), [x]) < 1e-6

    def test_mfs_transform_removes_small_features(self):
        pattern = np.zeros((15, 15))
        pattern[7, 7] = 1.0  # single-pixel feature
        out = MinimumFeatureSizeTransform(mfs_cells=4.0)(Tensor(pattern)).data
        assert out.max() < 0.5

    def test_mfs_transform_keeps_large_features(self):
        pattern = np.zeros((15, 15))
        pattern[4:11, 4:11] = 1.0
        out = MinimumFeatureSizeTransform(mfs_cells=3.0)(Tensor(pattern)).data
        assert out[7, 7] > 0.9

    def test_pipeline_composition_and_gradient(self):
        pipeline = TransformPipeline(
            [BlurTransform(1.5), SymmetryTransform("y"), BinarizationProjection(beta=6.0)]
        )
        assert len(pipeline) == 3
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (6, 6)), requires_grad=True)
        assert check_gradient(lambda x: pipeline(x), [x]) < 1e-4

    def test_pipeline_replace(self):
        pipeline = TransformPipeline([BinarizationProjection(beta=4.0)])
        pipeline.replace(0, BinarizationProjection(beta=20.0))
        assert pipeline.transforms[0].beta == 20.0

    def test_empty_pipeline_is_identity(self):
        x = np.random.default_rng(0).uniform(0, 1, (4, 4))
        np.testing.assert_allclose(TransformPipeline()(Tensor(x)).data, x)

    def test_transform_rejects_non_2d(self):
        with pytest.raises(ValueError):
            BlurTransform(1.0)(Tensor(np.zeros((2, 3, 4))))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BlurTransform(0.0)
        with pytest.raises(ValueError):
            BinarizationProjection(beta=-1.0)
        with pytest.raises(ValueError):
            BinarizationProjection(beta=1.0, eta=1.5)
        with pytest.raises(ValueError):
            SymmetryTransform("diagonal")
        with pytest.raises(ValueError):
            MinimumFeatureSizeTransform(mfs_cells=0.0)


KERNELS = {
    "conic-1.5": _conic_kernel(1.5),
    "conic-2.0": _conic_kernel(2.0),
    "gaussian-13x13": _gaussian_kernel(float(np.sqrt(1.5**2 + 1.0**2))),
}


class TestFixedKernelFilter:
    """The fabrication transforms' filter: correlate forward, convolve backward."""

    @pytest.mark.parametrize("cval", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_pad_and_conv2d(self, name, cval):
        kernel = KERNELS[name]
        rng = np.random.default_rng(2)
        data = rng.uniform(0.0, 1.0, (23, 17))
        grad = rng.normal(size=data.shape)
        pad = kernel.shape[0] // 2
        results = {}
        for path in ("filter", "conv2d"):
            x = Tensor(data, requires_grad=True)
            if path == "filter":
                y = fixed_kernel_filter(x, kernel, cval)
            else:
                padded = F.pad2d(x.reshape(1, 1, *data.shape), (pad,) * 4, value=cval)
                y = F.conv2d(padded, Tensor(kernel[None, None])).reshape(*data.shape)
            y.backward(grad)
            results[path] = (y.data, x.grad)
        for got, want in zip(results["filter"], results["conv2d"]):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("cval", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_backward_is_the_adjoint(self, name, cval):
        """``<K x, y> = <x, K^T y>`` for the linear part ``K x = f(x) - f(0)``."""
        kernel = KERNELS[name]
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(19, 21)), requires_grad=True)
        y = rng.normal(size=x.shape)
        out = fixed_kernel_filter(x, kernel, cval)
        linear = out.data - fixed_kernel_filter(Tensor(np.zeros(x.shape)), kernel, cval).data
        out.backward(y)
        lhs, rhs = np.vdot(linear, y), np.vdot(x.data, x.grad)
        assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


class TestAnalysis:
    def test_binarization_level_extremes(self):
        assert binarization_level(np.array([0.0, 1.0, 1.0, 0.0])) == pytest.approx(1.0)
        assert binarization_level(np.full(10, 0.5)) == pytest.approx(0.0)

    def test_minimum_feature_size_of_stripe(self):
        pattern = np.zeros((20, 20))
        pattern[:, 8:12] = 1.0  # 4-cell-wide stripe
        assert 3.0 <= minimum_feature_size(pattern) <= 6.0

    def test_minimum_feature_size_uniform_spans_region(self):
        assert minimum_feature_size(np.ones((10, 10))) >= 8.0

    def test_single_pixel_feature_is_small(self):
        pattern = np.zeros((20, 20))
        pattern[10, 10] = 1.0
        assert minimum_feature_size(pattern) <= 2.0

    def test_solid_fraction(self):
        pattern = np.zeros((10, 10))
        pattern[:5] = 1.0
        assert solid_fraction(pattern) == pytest.approx(0.5)
