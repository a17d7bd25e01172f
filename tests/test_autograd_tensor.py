"""Tests for the autograd engine: tensor ops, broadcasting and the backward pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, check_gradient, no_grad

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
