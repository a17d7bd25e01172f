"""Gradient checks for the fused primitives: convolution, pooling, FFT operators."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradient, functional as F


def tensor_of(shape, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.normal(size=shape), requires_grad=True)


class TestPadCrop:
    def test_pad_values(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        out = F.pad2d(x, (1, 1, 2, 2), value=5.0)
        assert out.shape == (1, 1, 4, 6)
        assert out.data[0, 0, 0, 0] == 5.0
        assert out.data[0, 0, 1, 2] == 1.0

    def test_pad_gradient(self):
        x = tensor_of((2, 3, 4, 5), seed=1)
        assert check_gradient(lambda x: F.pad2d(x, (1, 0, 2, 1)), [x]) < 1e-6

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            F.pad2d(Tensor(np.ones((1, 1, 2, 2))), (-1, 0, 0, 0))

    def test_crop(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.crop2d(x, (2, 3))
        assert out.shape == (1, 1, 2, 3)

    def test_crop_too_large_rejected(self):
        with pytest.raises(ValueError):
            F.crop2d(Tensor(np.ones((1, 1, 2, 2))), (3, 2))


def conv2d_reference(x, w, b, stride, padding):
    """Direct nested-loop cross-correlation and its three gradients for the
    seed ``grad_out``: returns ``(out, backward)``."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    _, _, k_h, k_w = w.shape
    h_out = (xp.shape[2] - k_h) // stride + 1
    w_out = (xp.shape[3] - k_w) // stride + 1

    def window(i, j):
        return xp[:, :, i * stride : i * stride + k_h, j * stride : j * stride + k_w]

    out = np.empty((x.shape[0], w.shape[0], h_out, w_out))
    for i in range(h_out):
        for j in range(w_out):
            out[:, :, i, j] = np.einsum("bcuv,ocuv->bo", window(i, j), w) + b

    def backward(grad_out):
        grad_xp = np.zeros_like(xp)
        grad_w = np.zeros_like(w)
        for i in range(h_out):
            for j in range(w_out):
                g = grad_out[:, :, i, j]
                grad_w += np.einsum("bo,bcuv->ocuv", g, window(i, j))
                grad_xp[
                    :, :, i * stride : i * stride + k_h, j * stride : j * stride + k_w
                ] += np.einsum("bo,ocuv->bcuv", g, w)
        h, w_in = x.shape[2:]
        grad_x = grad_xp[:, :, padding : padding + h, padding : padding + w_in]
        return grad_x, grad_w, grad_out.sum(axis=(0, 2, 3))

    return out, backward


def assert_rel_close(actual, expected, rtol=1e-12):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


class TestConv2d:
    @pytest.mark.parametrize(
        "stride,padding,kernel",
        [
            pytest.param(1, 0, (3, 3), id="1-0"),
            pytest.param(1, 1, (3, 3), id="1-1"),
            pytest.param(2, 1, (3, 3), id="2-1"),
            pytest.param(2, 0, (3, 3), id="2-0"),
            pytest.param(1, 0, (1, 1), id="1x1"),
            pytest.param(2, 1, (2, 3), id="2x3-2-1"),
        ],
    )
    def test_gradients(self, stride, padding, kernel):
        x = tensor_of((2, 3, 6, 7), seed=0)
        w = tensor_of((4, 3, *kernel), seed=1)
        b = tensor_of((4,), seed=2)
        err = check_gradient(
            lambda x, w, b: F.conv2d(x, w, b, stride=stride, padding=padding), [x, w, b]
        )
        assert err < 1e-4

    @pytest.mark.parametrize(
        "x_shape,w_shape,stride,padding",
        [
            *[
                pytest.param(
                    (2, 3, 7, 6), (4, 3, 3, 3), stride, padding, id=f"3x3-s{stride}-p{padding}"
                )
                for stride in (1, 2)
                for padding in (0, 1)
            ],
            pytest.param((2, 5, 9, 8), (3, 5, 1, 1), 1, 0, id="1x1"),
            pytest.param((2, 5, 9, 8), (3, 5, 1, 1), 2, 1, id="1x1-s2-p1"),
            pytest.param((2, 3, 7, 9), (2, 3, 2, 3), 2, 1, id="2x3-s2-p1"),
            pytest.param((1, 1, 20, 18), (1, 1, 5, 5), 1, 0, id="blur-5x5"),
            pytest.param((1, 1, 24, 22), (1, 1, 11, 11), 1, 0, id="fabrication-11x11"),
            pytest.param((1, 1, 26, 24), (1, 1, 13, 13), 1, 0, id="fabrication-13x13"),
        ],
    )
    def test_matches_direct_reference(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=x_shape), requires_grad=True)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        b = Tensor(rng.normal(size=w_shape[:1]), requires_grad=True)
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        expected, reference_backward = conv2d_reference(x.data, w.data, b.data, stride, padding)
        assert out.shape == expected.shape
        assert_rel_close(out.data, expected)

        grad_out = rng.normal(size=out.shape)
        out.backward(grad_out)
        for tensor, expected_grad in zip((x, w, b), reference_backward(grad_out)):
            assert_rel_close(tensor.grad, expected_grad)

    @staticmethod
    def _backward_counting(monkeypatch, x, w, b, grad):
        """Run one conv2d backward; count weight GEMMs and input scatter buffers."""
        out = F.conv2d(x, w, b, stride=1, padding=1)
        calls = {"matmul": 0, "zeros_like": 0}
        for name in calls:
            original = getattr(np, name)

            def spy(*args, name=name, original=original, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(np, name, spy)
        out.backward(grad)
        monkeypatch.undo()
        return calls

    def test_backward_skips_what_no_parent_needs(self, monkeypatch):
        """A data input gets no input gradient, a constant weight no weight
        gradient; the gradients that are formed stay bitwise identical."""
        rng = np.random.default_rng(4)
        x_data, w_data, b_data = (
            rng.normal(size=(2, 3, 7, 6)), rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
        )
        grad = rng.normal(size=(2, 4, 7, 6))

        def tensors(x_grad, w_grad):
            return (
                Tensor(x_data, requires_grad=x_grad),
                Tensor(w_data, requires_grad=w_grad),
                Tensor(b_data, requires_grad=w_grad),
            )

        full = tensors(True, True)
        assert self._backward_counting(monkeypatch, *full, grad) == {"matmul": 1, "zeros_like": 1}

        data_input = tensors(False, True)
        assert self._backward_counting(monkeypatch, *data_input, grad) == {
            "matmul": 1, "zeros_like": 0
        }
        assert data_input[0].grad is None
        for got, want in zip(data_input[1:], full[1:]):
            assert np.array_equal(got.grad, want.grad)

        fixed_filter = tensors(True, False)
        assert self._backward_counting(monkeypatch, *fixed_filter, grad) == {
            "matmul": 0, "zeros_like": 1
        }
        assert fixed_filter[1].grad is None and fixed_filter[2].grad is None
        assert np.array_equal(fixed_filter[0].grad, full[0].grad)

    @pytest.mark.parametrize(
        "kwargs,argument", [(dict(stride=0), "stride"), (dict(padding=-1), "padding")]
    )
    def test_invalid_stride_or_padding_raises(self, kwargs, argument):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError, match=argument):
            F.conv2d(x, w, **kwargs)

    def test_output_shape(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        w = Tensor(np.zeros((5, 2, 3, 3)))
        assert F.conv2d(x, w, None, stride=2, padding=1).shape == (1, 5, 4, 4)

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        np.testing.assert_allclose(F.conv2d(x, w).data, x.data)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_kernel_larger_than_input_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


class TestPoolingAndUpsampling:
    def test_avg_pool_values(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradient(self):
        x = tensor_of((2, 3, 4, 6), seed=3)
        assert check_gradient(lambda x: F.avg_pool2d(x, 2), [x]) < 1e-6

    def test_avg_pool_indivisible_raises(self):
        with pytest.raises(ValueError):
            F.avg_pool2d(Tensor(np.zeros((1, 1, 5, 4))), 2)

    def test_upsample_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = F.upsample_nearest(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data[0, 0, :2, :2], 1.0)

    def test_upsample_gradient(self):
        x = tensor_of((1, 2, 3, 3), seed=4)
        assert check_gradient(lambda x: F.upsample_nearest(x, 3), [x]) < 1e-6

    def test_pool_then_upsample_preserves_mean(self):
        x = tensor_of((1, 1, 4, 4), seed=5)
        out = F.upsample_nearest(F.avg_pool2d(x, 2), 2)
        assert out.data.mean() == pytest.approx(x.data.mean())


class TestSpectralConv:
    def test_spectral2d_gradient(self):
        x = tensor_of((2, 2, 8, 8), seed=0)
        wr = tensor_of((2, 3, 4, 4), seed=1, scale=0.1)
        wi = tensor_of((2, 3, 4, 4), seed=2, scale=0.1)
        err = check_gradient(lambda x, wr, wi: F.spectral_conv2d(x, wr, wi, (2, 2)), [x, wr, wi])
        assert err < 1e-4

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_spectral1d_gradient(self, axis):
        x = tensor_of((2, 2, 8, 6), seed=0)
        wr = tensor_of((2, 3, 4), seed=1, scale=0.1)
        wi = tensor_of((2, 3, 4), seed=2, scale=0.1)
        err = check_gradient(
            lambda x, wr, wi: F.spectral_conv1d(x, wr, wi, 2, axis=axis), [x, wr, wi]
        )
        assert err < 1e-4

    def test_spectral2d_output_shape(self):
        x = Tensor(np.zeros((1, 3, 10, 12)))
        wr = Tensor(np.zeros((3, 5, 6, 4)))
        wi = Tensor(np.zeros((3, 5, 6, 4)))
        assert F.spectral_conv2d(x, wr, wi, (3, 2)).shape == (1, 5, 10, 12)

    def test_spectral2d_identity_weight_low_pass(self):
        """Identity weights on all retained modes act as a spectral low-pass filter."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 1, 16, 16)))
        modes = (8, 8)
        wr = np.zeros((1, 1, 16, 16))
        wr[0, 0] = 1.0
        out = F.spectral_conv2d(x, Tensor(wr), Tensor(np.zeros_like(wr)), modes)
        # With all modes retained and unit weights the operation is the identity.
        np.testing.assert_allclose(out.data, x.data, atol=1e-10)

    def test_too_many_modes_rejected(self):
        x = Tensor(np.zeros((1, 1, 8, 8)))
        wr = Tensor(np.zeros((1, 1, 10, 10)))
        with pytest.raises(ValueError):
            F.spectral_conv2d(x, wr, wr, (5, 5))

    def test_weight_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        wr = Tensor(np.zeros((2, 2, 4, 2)))
        with pytest.raises(ValueError):
            F.spectral_conv2d(x, wr, wr, (2, 2))


def _fft_spectral_conv2d(x, w, modes, grad):
    """Full-FFT reference for spectral_conv2d: output and x/w cotangents."""
    batch, c_in, height, width = x.shape
    c_out = w.shape[1]
    rows = np.r_[0 : modes[0], height - modes[0] : height][:, None]
    cols = np.r_[0 : modes[1], width - modes[1] : width][None, :]
    x_modes = np.fft.fft2(x)[:, :, rows, cols]
    full = np.zeros((batch, c_out, height, width), dtype=complex)
    full[:, :, rows, cols] = np.einsum("bimn,iomn->bomn", x_modes, w)
    out = np.real(np.fft.ifft2(full))
    g_p = (np.fft.fft2(grad) / (height * width))[:, :, rows, cols]
    grad_w = np.einsum("bimn,bomn->iomn", np.conj(x_modes), g_p)
    g_x = np.zeros(x.shape, dtype=complex)
    g_x[:, :, rows, cols] = np.einsum("bomn,iomn->bimn", g_p, np.conj(w))
    return out, height * width * np.real(np.fft.ifft2(g_x)), grad_w


def _fft_spectral_conv1d(x, w, modes, axis, grad):
    """Full-FFT reference for spectral_conv1d along ``axis`` (moved last here)."""
    x, grad = np.moveaxis(x, axis, -1), np.moveaxis(grad, axis, -1)
    size = x.shape[-1]
    idx = np.r_[0:modes, size - modes : size]
    x_modes = np.fft.fft(x)[..., idx]
    full = np.zeros(grad.shape, dtype=complex)
    full[..., idx] = np.einsum("bihm,iom->bohm", x_modes, w)
    out = np.real(np.fft.ifft(full))
    g_p = (np.fft.fft(grad) / size)[..., idx]
    grad_w = np.einsum("bihm,bohm->iom", np.conj(x_modes), g_p)
    g_x = np.zeros(x.shape, dtype=complex)
    g_x[..., idx] = np.einsum("bohm,iom->bihm", g_p, np.conj(w))
    grad_x = size * np.real(np.fft.ifft(g_x))
    return np.moveaxis(out, -1, axis), np.moveaxis(grad_x, -1, axis), grad_w


def _run_spectral(kernel, x, w_real, w_imag, grad, *args):
    tensors = [Tensor(a, requires_grad=True) for a in (x, w_real, w_imag)]
    out = kernel(*tensors, *args)
    out.backward(grad)
    return out.data, tensors[0].grad, tensors[1].grad, tensors[2].grad


def _relative(actual, expected):
    return np.abs(actual - expected).max() / np.abs(expected).max()


class TestSpectralConvAgainstFFT:
    """The truncated-DFT kernels equal a full-FFT implementation."""

    @pytest.mark.parametrize(
        "shape,modes",
        [
            ((2, 4, 51, 51), (6, 6)),  # the odd size the surrogate benchmarks train at
            ((2, 3, 7, 7), (2, 3)),
            ((2, 3, 8, 8), (2, 3)),
            ((2, 3, 9, 12), (3, 4)),  # H != W
            ((1, 2, 6, 7), (3, 2)),  # 2*m1 == H
            ((1, 2, 7, 8), (2, 4)),  # 2*m2 == W
        ],
    )
    def test_spectral2d(self, shape, modes):
        rng = np.random.default_rng(sum(shape) + sum(modes))
        batch, c_in, height, width = shape
        c_out = 3
        w_shape = (c_in, c_out, 2 * modes[0], 2 * modes[1])
        x = rng.normal(size=shape)
        w_real, w_imag = rng.normal(size=w_shape), rng.normal(size=w_shape)
        grad = rng.normal(size=(batch, c_out, height, width))
        out, grad_x, grad_wr, grad_wi = _run_spectral(
            F.spectral_conv2d, x, w_real, w_imag, grad, modes
        )
        ref_out, ref_x, ref_w = _fft_spectral_conv2d(x, w_real + 1j * w_imag, modes, grad)
        assert _relative(out, ref_out) <= 1e-12
        assert _relative(grad_x, ref_x) <= 1e-12
        assert _relative(grad_wr, ref_w.real) <= 1e-12
        assert _relative(grad_wi, ref_w.imag) <= 1e-12

    @pytest.mark.parametrize("axis", [-1, -2, 2, 3])
    @pytest.mark.parametrize(
        "shape,modes",
        [
            ((2, 4, 51, 51), 6),
            ((2, 3, 7, 7), 3),
            ((2, 3, 8, 8), 3),
            ((2, 3, 9, 12), 2),
            ((1, 2, 8, 8), 4),  # 2*modes == N
        ],
    )
    def test_spectral1d(self, shape, modes, axis):
        rng = np.random.default_rng(sum(shape) + modes + axis)
        batch, c_in, height, width = shape
        c_out = 3
        w_shape = (c_in, c_out, 2 * modes)
        x = rng.normal(size=shape)
        w_real, w_imag = rng.normal(size=w_shape), rng.normal(size=w_shape)
        grad = rng.normal(size=(batch, c_out, height, width))
        out, grad_x, grad_wr, grad_wi = _run_spectral(
            F.spectral_conv1d, x, w_real, w_imag, grad, modes, axis
        )
        ref_out, ref_x, ref_w = _fft_spectral_conv1d(x, w_real + 1j * w_imag, modes, axis, grad)
        assert _relative(out, ref_out) <= 1e-12
        assert _relative(grad_x, ref_x) <= 1e-12
        assert _relative(grad_wr, ref_w.real) <= 1e-12
        assert _relative(grad_wi, ref_w.imag) <= 1e-12

    @pytest.mark.parametrize("axis", [None, -2, -1])
    def test_float32_matches_float64(self, axis):
        """float32 kernels agree with float64 on the same (float32) values."""
        rng = np.random.default_rng(5)
        modes = (6, 6) if axis is None else 6
        w_shape = (4, 3, 12, 12) if axis is None else (4, 3, 12)
        # float32 values, so both runs see identical inputs.
        arrays = [
            rng.normal(size=shape).astype(np.float32)
            for shape in ((2, 4, 51, 51), w_shape, w_shape, (2, 3, 51, 51))
        ]
        runs = {}
        for dtype in (np.float32, np.float64):
            x, w_real, w_imag = (Tensor(a, requires_grad=True, dtype=dtype) for a in arrays[:3])
            if axis is None:
                out = F.spectral_conv2d(x, w_real, w_imag, modes)
            else:
                out = F.spectral_conv1d(x, w_real, w_imag, modes, axis=axis)
            out.backward(arrays[3])
            runs[dtype] = (out.data, x.grad, w_real.grad, w_imag.grad)
        for single, double in zip(runs[np.float32], runs[np.float64]):
            assert single.dtype == np.float32
            assert _relative(single, double) <= 1e-5

    def test_spectral2d_gradient_odd_size(self):
        x = tensor_of((2, 2, 7, 9), seed=0)
        wr = tensor_of((2, 3, 4, 6), seed=1, scale=0.1)
        wi = tensor_of((2, 3, 4, 6), seed=2, scale=0.1)
        err = check_gradient(lambda x, wr, wi: F.spectral_conv2d(x, wr, wi, (2, 3)), [x, wr, wi])
        assert err < 1e-4

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_spectral1d_gradient_odd_size(self, axis):
        x = tensor_of((2, 2, 7, 9), seed=0)
        wr = tensor_of((2, 3, 6), seed=1, scale=0.1)
        wi = tensor_of((2, 3, 6), seed=2, scale=0.1)
        err = check_gradient(
            lambda x, wr, wi: F.spectral_conv1d(x, wr, wi, 3, axis=axis), [x, wr, wi]
        )
        assert err < 1e-4

    def test_dft_cache_is_shared_and_read_only(self):
        matrices = F._truncated_dft(13, 4)
        assert F._truncated_dft(13, 4) is matrices
        for matrix in matrices:
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    @pytest.mark.parametrize("kernel", ["2d", "1d"])
    def test_float32_input(self, kernel):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 2, 7, 8)), requires_grad=True, dtype=np.float32)
        w_shape = (2, 3, 4, 4) if kernel == "2d" else (2, 3, 4)
        wr = Tensor(rng.normal(size=w_shape), requires_grad=True)
        wi = Tensor(rng.normal(size=w_shape), requires_grad=True)
        if kernel == "2d":
            out = F.spectral_conv2d(x, wr, wi, (2, 2))
        else:
            out = F.spectral_conv1d(x, wr, wi, 2, axis=-2)
        assert out.data.dtype == np.float32
        out.backward(np.ones(out.shape))
        assert x.grad.dtype == np.float32
        assert wr.grad.dtype == np.float64


class TestDropoutSoftplus:
    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((2000,)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.1)

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True, rng=np.random.default_rng(0))

    def test_softplus_gradient(self):
        x = tensor_of((3, 3), seed=6)
        assert check_gradient(lambda x: F.softplus(x), [x]) < 1e-5

    def test_softplus_positive(self):
        out = F.softplus(Tensor(np.linspace(-10, 10, 21)))
        assert (out.data > 0).all()
