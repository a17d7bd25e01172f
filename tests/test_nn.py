"""Tests for the neural-network library: modules, layers, spectral blocks, optimizers."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.nn.module import Parameter


class TestModule:
    def test_parameter_registration(self):
        layer = nn.Linear(3, 2, rng=0)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_module_parameters(self):
        model = nn.Sequential(nn.Linear(3, 4, rng=0), nn.Linear(4, 2, rng=1))
        assert len(list(model.parameters())) == 4
        assert model.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Linear(2, 2, rng=0), nn.Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_roundtrip(self):
        model = nn.Sequential(nn.Linear(3, 3, rng=0), nn.Linear(3, 1, rng=1))
        clone = nn.Sequential(nn.Linear(3, 3, rng=2), nn.Linear(3, 1, rng=3))
        clone.load_state_dict(model.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_load_state_dict_rejects_mismatch(self):
        model = nn.Linear(3, 2, rng=0)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((2, 3))})

    def test_load_state_dict_rejects_bad_shape(self):
        model = nn.Linear(3, 2, rng=0)
        state = model.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_save_load_file(self, tmp_path):
        model = nn.Linear(4, 2, rng=0)
        path = tmp_path / "model.npz"
        model.save(str(path))
        clone = nn.Linear(4, 2, rng=9)
        clone.load(str(path))
        np.testing.assert_allclose(model.weight.data, clone.weight.data)

    def test_zero_grad(self):
        model = nn.Linear(2, 1, rng=0)
        out = model(Tensor(np.ones((3, 2)))).sum()
        out.backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_module_list(self):
        items = nn.ModuleList([nn.Linear(2, 2, rng=i) for i in range(3)])
        assert len(items) == 3
        assert len(list(items.parameters())) == 6
        assert isinstance(items[1], nn.Linear)


class TestLayers:
    def test_linear_shape(self):
        layer = nn.Linear(5, 3, rng=0)
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_linear_no_bias(self):
        layer = nn.Linear(5, 3, bias=False, rng=0)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_conv2d_shape_same_padding(self):
        layer = nn.Conv2d(3, 8, kernel_size=3, padding="same", rng=0)
        assert layer(Tensor(np.zeros((2, 3, 9, 11)))).shape == (2, 8, 9, 11)

    def test_conv2d_stride(self):
        layer = nn.Conv2d(1, 2, kernel_size=3, stride=2, padding=1, rng=0)
        assert layer(Tensor(np.zeros((1, 1, 8, 8)))).shape == (1, 2, 4, 4)

    def test_conv2d_same_padding_requires_unit_stride(self):
        with pytest.raises(ValueError):
            nn.Conv2d(1, 1, kernel_size=3, stride=2, padding="same")

    def test_conv2d_same_padding_requires_odd_kernel(self):
        # An even kernel cannot pad symmetrically to keep the size: k=2 with
        # padding k//2 would map 8x8 to 9x9.
        with pytest.raises(ValueError, match="odd kernel_size"):
            nn.Conv2d(1, 1, kernel_size=2, padding="same")

    def test_groupnorm_normalizes(self):
        layer = nn.GroupNorm(2, 4)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4, 8, 8)) * 5 + 3)
        out = layer(x).data
        grouped = out.reshape(2, 2, 2, 8, 8)
        np.testing.assert_allclose(grouped.mean(axis=(2, 3, 4)), 0.0, atol=1e-6)
        np.testing.assert_allclose(grouped.std(axis=(2, 3, 4)), 1.0, atol=1e-3)

    def test_groupnorm_divisibility_check(self):
        with pytest.raises(ValueError):
            nn.GroupNorm(3, 4)

    def test_layernorm_normalizes_last_dim(self):
        layer = nn.LayerNorm(6)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 6)) * 2 + 1)
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)

    def test_activations_shapes(self):
        x = Tensor(np.linspace(-2, 2, 12).reshape(3, 4))
        for layer in [nn.ReLU(), nn.GELU(), nn.Tanh(), nn.Sigmoid(), nn.Identity()]:
            assert layer(x).shape == x.shape

    def test_relu_nonnegative(self):
        out = nn.ReLU()(Tensor(np.linspace(-5, 5, 11)))
        assert (out.data >= 0).all()

    def test_dropout_training_vs_eval(self):
        layer = nn.Dropout(0.9, rng=0)
        x = Tensor(np.ones((10, 10)))
        layer.train()
        dropped = layer(x).data
        layer.eval()
        kept = layer(x).data
        assert (dropped == 0).any()
        np.testing.assert_allclose(kept, 1.0)

    def test_pool_and_upsample_modules(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        assert nn.AvgPool2d(2)(x).shape == (1, 2, 4, 4)
        assert nn.UpsampleNearest2d(2)(x).shape == (1, 2, 16, 16)


class TestSpectralLayers:
    def test_spectral_conv2d_shapes(self):
        layer = nn.SpectralConv2d(3, 5, (3, 4), rng=0)
        assert layer(Tensor(np.zeros((2, 3, 12, 14)))).shape == (2, 5, 12, 14)

    def test_factorized_spectral_shapes(self):
        layer = nn.FactorizedSpectralConv2d(3, 5, (3, 4), rng=0)
        assert layer(Tensor(np.zeros((2, 3, 12, 14)))).shape == (2, 5, 12, 14)

    def test_factorized_has_fewer_parameters(self):
        modes = (6, 6)
        dense = nn.SpectralConv2d(8, 8, modes, rng=0)
        factorized = nn.FactorizedSpectralConv2d(8, 8, modes, rng=0)
        assert factorized.num_parameters() < dense.num_parameters()

    def test_spectral_layer_trains(self):
        """With all modes retained, a spectral layer can learn a circular shift."""
        rng = np.random.default_rng(0)
        layer = nn.SpectralConv2d(1, 1, (6, 6), rng=0)
        x = Tensor(rng.normal(size=(4, 1, 12, 12)))
        target = Tensor(np.roll(x.data, 1, axis=-1))
        optimizer = nn.Adam(layer.parameters(), lr=2e-2)
        first_loss = None
        for _ in range(80):
            optimizer.zero_grad()
            loss = ((layer(x) - target) ** 2).mean()
            loss.backward()
            optimizer.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < 0.5 * first_loss


class TestOptimizers:
    @staticmethod
    def _quadratic_problem(optimizer_factory, steps=60):
        target = np.array([1.5, -2.0, 0.5])
        param = Parameter(np.zeros(3))
        optimizer = optimizer_factory([param])
        for _ in range(steps):
            optimizer.zero_grad()
            loss = ((param - Tensor(target)) ** 2).sum()
            loss.backward()
            optimizer.step()
        return param.data, target

    def test_sgd_converges(self):
        value, target = self._quadratic_problem(lambda p: nn.SGD(p, lr=0.1))
        np.testing.assert_allclose(value, target, atol=1e-2)

    def test_sgd_momentum_converges(self):
        value, target = self._quadratic_problem(
            lambda p: nn.SGD(p, lr=0.05, momentum=0.9), steps=150
        )
        np.testing.assert_allclose(value, target, atol=5e-2)

    def test_adam_converges(self):
        value, target = self._quadratic_problem(lambda p: nn.Adam(p, lr=0.2), steps=120)
        np.testing.assert_allclose(value, target, atol=5e-2)

    def test_weight_decay_shrinks_solution(self):
        no_decay, target = self._quadratic_problem(lambda p: nn.Adam(p, lr=0.2), steps=150)
        decayed, _ = self._quadratic_problem(
            lambda p: nn.Adam(p, lr=0.2, weight_decay=0.5), steps=150
        )
        assert np.linalg.norm(decayed) < np.linalg.norm(no_decay)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([Parameter(np.zeros(2))], lr=0.0)

    def test_cosine_schedule_decays_to_min(self):
        optimizer = nn.Adam([Parameter(np.zeros(2))], lr=1.0)
        schedule = nn.CosineSchedule(optimizer, total_epochs=10, min_lr=0.1)
        lrs = [schedule.step() for _ in range(10)]
        assert lrs[-1] == pytest.approx(0.1, abs=1e-6)
        assert all(earlier >= later - 1e-12 for earlier, later in zip(lrs, lrs[1:]))

    def test_step_schedule_halves(self):
        optimizer = nn.SGD([Parameter(np.zeros(2))], lr=1.0)
        schedule = nn.StepSchedule(optimizer, step_size=2, gamma=0.5)
        lrs = [schedule.step() for _ in range(4)]
        assert lrs == pytest.approx([1.0, 0.5, 0.5, 0.25])
