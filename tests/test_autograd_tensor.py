"""Tests for the autograd engine: tensor ops, broadcasting and the backward pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, check_gradient, functional as F, no_grad

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def tensor_of(shape, seed=0, requires_grad=True, scale=1.0):
    rng = np.random.default_rng(seed)
    return Tensor(scale * rng.normal(size=shape), requires_grad=requires_grad)


class TestBasicOps:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_scalar_broadcast(self):
        out = Tensor([[1.0, 2.0]]) * 3.0
        np.testing.assert_allclose(out.data, [[3.0, 6.0]])

    def test_pow(self):
        out = Tensor([2.0, 3.0]) ** 2
        np.testing.assert_allclose(out.data, [4.0, 9.0])

    def test_matmul_values(self):
        a = Tensor(np.eye(3))
        b = Tensor(np.arange(9.0).reshape(3, 3))
        np.testing.assert_allclose((a @ b).data, b.data)

    def test_comparisons_return_arrays(self):
        mask = Tensor([1.0, -1.0]) > 0
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, [True, False])

    def test_reshape_and_transpose(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.reshape(3, 2).shape == (3, 2)
        assert x.transpose().shape == (3, 2)

    def test_cat_and_stack(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2)))
        assert Tensor.cat([a, b], axis=0).shape == (4, 2)
        assert Tensor.stack([a, b], axis=0).shape == (2, 2, 2)


class TestGradients:
    @pytest.mark.parametrize(
        "func",
        [
            lambda x: (x * 2.0 + 1.0) ** 3,
            lambda x: x.exp(),
            lambda x: (x.abs() + 1.0).log(),
            lambda x: x.tanh(),
            lambda x: x.sigmoid(),
            lambda x: x.relu(),
            lambda x: x.gelu(),
            lambda x: x.sin() + x.cos(),
            lambda x: (x * x + 1.0).sqrt(),
            lambda x: x.clamp(-0.5, 0.5),
            lambda x: x.abs(),
        ],
        ids=[
            "poly",
            "exp",
            "log",
            "tanh",
            "sigmoid",
            "relu",
            "gelu",
            "trig",
            "sqrt",
            "clamp",
            "abs",
        ],
    )
    def test_elementwise_gradients(self, func):
        x = tensor_of((3, 4), seed=2)
        assert check_gradient(func, [x]) < 1e-4

    @pytest.mark.parametrize("shape", [(), (3, 4), (2, 3, 5, 5)])
    def test_gelu_matches_closed_form(self, shape):
        rng = np.random.default_rng(7)
        x = 3.0 * rng.normal(size=shape)
        grad = rng.normal(size=shape)
        c = np.sqrt(2.0 / np.pi)
        t = np.tanh(c * (x + 0.044715 * x**3))
        expected = 0.5 * x * (1.0 + t)
        expected_grad = grad * (
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * c * (1.0 + 3 * 0.044715 * x**2)
        )
        tensor = Tensor(x, requires_grad=True)
        out = tensor.gelu()
        out.backward(grad)
        np.testing.assert_allclose(out.data, expected, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(tensor.grad, expected_grad, rtol=1e-13, atol=1e-15)

    def test_broadcast_add_gradient(self):
        a = tensor_of((3, 4), seed=0)
        b = tensor_of((4,), seed=1)
        assert check_gradient(lambda a, b: a + b * 2.0, [a, b]) < 1e-5

    def test_broadcast_mul_gradient(self):
        a = tensor_of((2, 3, 4), seed=0)
        b = tensor_of((1, 3, 1), seed=1)
        assert check_gradient(lambda a, b: a * b, [a, b]) < 1e-5

    def test_division_gradient(self):
        a = tensor_of((3, 3), seed=0)
        b = Tensor(np.random.default_rng(1).uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        assert check_gradient(lambda a, b: a / b, [a, b]) < 1e-4

    def test_matmul_gradient(self):
        a = tensor_of((3, 4), seed=0)
        b = tensor_of((4, 2), seed=1)
        assert check_gradient(lambda a, b: a @ b, [a, b]) < 1e-5

    def test_matvec_gradient(self):
        a = tensor_of((3, 4), seed=0)
        v = tensor_of((4,), seed=1)
        assert check_gradient(lambda a, v: a @ v, [a, v]) < 1e-5

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
    def test_sum_gradient(self, axis, keepdims):
        x = tensor_of((3, 5), seed=3)
        assert check_gradient(lambda x: x.sum(axis=axis, keepdims=keepdims), [x]) < 1e-6

    def test_mean_max_gradient(self):
        x = tensor_of((4, 4), seed=4)
        assert check_gradient(lambda x: x.mean(axis=0), [x]) < 1e-6
        assert check_gradient(lambda x: x.max(axis=1), [x]) < 1e-5

    def test_getitem_gradient(self):
        x = tensor_of((5, 5), seed=5)
        assert check_gradient(lambda x: x[1:4, ::2] * 2.0, [x]) < 1e-6

    def test_reshape_transpose_gradient(self):
        x = tensor_of((2, 3, 4), seed=6)
        assert check_gradient(lambda x: x.reshape(6, 4).transpose(), [x]) < 1e-6

    def test_cat_stack_gradient(self):
        a = tensor_of((2, 3), seed=7)
        b = tensor_of((2, 3), seed=8)
        assert check_gradient(lambda a, b: Tensor.cat([a, b], axis=1).tanh(), [a, b]) < 1e-5
        assert check_gradient(lambda a, b: Tensor.stack([a, b], axis=0).sigmoid(), [a, b]) < 1e-5

    def test_norm_gradient(self):
        x = tensor_of((3, 3), seed=9)
        assert check_gradient(lambda x: x.norm(), [x]) < 1e-5

    @given(hnp.arrays(np.float64, (3, 3), elements=finite))
    @settings(max_examples=20, deadline=None)
    def test_chain_rule_matches_analytic(self, data):
        x = Tensor(data, requires_grad=True)
        y = (x * x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, 2 * data, rtol=1e-7, atol=1e-9)


class TestGraphMechanics:
    def test_gradient_accumulates_over_multiple_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_explicit_seed(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        (x * 2).backward(grad=np.ones((2, 2)))
        np.testing.assert_allclose(x.grad, 2 * np.ones((2, 2)))

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach() * 3.0
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_second_backward_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_constants_do_not_collect_grad(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        (x * c).sum().backward()
        assert c.grad is None


def _f32(shape, seed=0, positive=False):
    data = np.random.default_rng(seed).normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True, dtype=np.float32)


_X_SHAPE = (2, 3, 8, 8)

#: Every differentiable op of ``repro.autograd``: name -> (extra input
#: shapes, function of the float32 input ``x`` (positive) and the extras).
_DTYPE_OPS = {
    "add": ((_X_SHAPE,), lambda x, y: x + y),
    "radd": ((), lambda x: 1.0 + x),
    "neg": ((), lambda x: -x),
    "sub": ((_X_SHAPE,), lambda x, y: x - y),
    "rsub": ((), lambda x: 2.0 - x),
    "mul": ((_X_SHAPE,), lambda x, y: x * y),
    "rmul": ((), lambda x: 2.0 * x),
    "truediv": ((_X_SHAPE,), lambda x, y: y / x),
    "rtruediv": ((), lambda x: 1.0 / x),
    "pow": ((), lambda x: x**1.5),
    "matmul": (((8, 5),), lambda x, w: x @ w),
    "exp": ((), lambda x: x.exp()),
    "log": ((), lambda x: x.log()),
    "sqrt": ((), lambda x: x.sqrt()),
    "tanh": ((), lambda x: x.tanh()),
    "sigmoid": ((), lambda x: x.sigmoid()),
    "relu": ((), lambda x: (x - 1.0).relu()),
    "gelu": ((), lambda x: x.gelu()),
    "abs": ((), lambda x: (x - 1.0).abs()),
    "sin": ((), lambda x: x.sin()),
    "cos": ((), lambda x: x.cos()),
    "clamp": ((), lambda x: x.clamp(0.7, 1.2)),
    "sum": ((), lambda x: x.sum(axis=(1, 2))),
    "mean": ((), lambda x: x.mean(axis=(2, 3), keepdims=True)),
    "max": ((), lambda x: x.max(axis=1)),
    "norm": ((), lambda x: x.norm()),
    "reshape": ((), lambda x: x.reshape(6, -1)),
    "transpose": ((), lambda x: x.transpose(0, 2, 3, 1)),
    "getitem": ((), lambda x: x[:, 1, ::2]),
    "flatten": ((), lambda x: x.flatten(1)),
    "cat": ((_X_SHAPE,), lambda x, y: Tensor.cat([x, y, np.ones(_X_SHAPE)], axis=1)),
    "stack": ((_X_SHAPE,), lambda x, y: Tensor.stack([np.ones(_X_SHAPE), x, y])),
    "astype": ((), lambda x: x.astype(np.float64).astype(np.float32)),
    "conv2d": (
        ((4, 3, 3, 3), (4,)),
        lambda x, w, b: F.conv2d(x, w, b, stride=2, padding=1),
    ),
    "conv2d_1x1": (((4, 3, 1, 1),), lambda x, w: F.conv2d(x, w)),
    "spectral_conv2d": (
        ((3, 4, 4, 6), (3, 4, 4, 6)),
        lambda x, wr, wi: F.spectral_conv2d(x, wr, wi, (2, 3)),
    ),
    "spectral_conv1d_h": (
        ((3, 4, 6), (3, 4, 6)),
        lambda x, wr, wi: F.spectral_conv1d(x, wr, wi, 3, axis=-2),
    ),
    "spectral_conv1d_w": (
        ((3, 4, 6), (3, 4, 6)),
        lambda x, wr, wi: F.spectral_conv1d(x, wr, wi, 3, axis=-1),
    ),
    "pad2d": ((), lambda x: F.pad2d(x, (1, 2, 0, 3), value=0.5)),
    "crop2d": ((), lambda x: F.crop2d(x, (5, 6))),
    "avg_pool2d": ((), lambda x: F.avg_pool2d(x, 2)),
    "upsample_nearest": ((), lambda x: F.upsample_nearest(x, 2)),
    "dropout": (
        (),
        lambda x: F.dropout(x, 0.3, training=True, rng=np.random.default_rng(0)),
    ),
    "softplus": ((), lambda x: F.softplus(x)),
}


class TestDtype:
    """float32 in gives float32 out and float32 gradients; float64 is untouched."""

    @pytest.mark.parametrize(
        "func",
        [
            lambda x: x * 2.0,
            lambda x: x + 1,
            lambda x: 2.0 - x,
            lambda x: x / 3,
            lambda x: x * np.full(3, 2.0),
            lambda x: Tensor.cat([x, np.ones(3)]),
            lambda x: Tensor.stack([np.ones(3), x]),
        ],
    )
    def test_constants_take_the_tensor_dtype(self, func):
        x = Tensor(np.arange(1.0, 4.0), dtype=np.float32)
        assert func(x).dtype == np.float32
        assert func(Tensor(np.arange(1.0, 4.0))).dtype == np.float64

    @pytest.mark.parametrize("name", sorted(_DTYPE_OPS))
    def test_op_preserves_float32(self, name):
        shapes, func = _DTYPE_OPS[name]
        inputs = [_f32(_X_SHAPE, positive=True)]
        inputs += [_f32(shape, seed=i + 1) for i, shape in enumerate(shapes)]
        out = func(*inputs)
        assert out.dtype == np.float32
        out.backward(np.ones(out.shape))
        for tensor in inputs:
            assert tensor.grad is not None and tensor.grad.dtype == np.float32

    def test_astype_round_trips_and_casts_the_gradient_back(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float32)
        assert x.astype(np.float32) is x
        wide = x.astype(np.float64)
        assert wide.dtype == np.float64
        (wide * wide).sum().backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        with pytest.raises(ValueError):
            x.astype(np.float16)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sqrt_gradient_at_zero_is_finite(self, dtype):
        x = Tensor(np.zeros(2), requires_grad=True, dtype=dtype)
        x.sqrt().sum().backward()
        assert np.isfinite(x.grad).all()

    def test_detach_and_copy_keep_dtype(self):
        x = Tensor(np.ones(2), requires_grad=True, dtype=np.float32)
        assert x.detach().dtype == np.float32
        assert x.copy().dtype == np.float32
