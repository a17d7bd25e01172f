"""Tests for MAPS-Train: models, losses, metrics and the trainer."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.constants import wavelength_to_omega
from repro.fdfd.solver import FdfdSolver
from repro.train import (
    FinetuneCurriculum,
    MaxwellResidualLoss,
    MixedCurriculum,
    NMSELoss,
    NormalizedL2Loss,
    Trainer,
    WarmupCurriculum,
    available_curricula,
    available_models,
    make_curriculum,
    make_model,
    normalized_l2_metric,
    s_parameter_error,
    transmission_error,
)
from repro.train.losses import CompositeLoss, MSELoss
from repro.train.models.neurolight import wave_prior_channels
from repro.train.trainer import TrainingHistory, predict


FIELD_MODELS = ["fno", "ffno", "unet", "neurolight"]


class TestModels:
    def test_available_models(self):
        assert set(available_models()) == {"fno", "ffno", "unet", "neurolight", "blackbox"}

    @pytest.mark.parametrize("name", FIELD_MODELS)
    def test_field_model_shapes(self, name):
        model = make_model(name, width=8, modes=(3, 3), rng=0) if name != "unet" else make_model(
            name, base_width=8, rng=0
        )
        x = Tensor(np.random.default_rng(0).normal(size=(2, 4, 20, 22)))
        out = model(x)
        assert out.shape == (2, 2, 20, 22)

    def test_blackbox_output_shape_and_range(self):
        model = make_model("blackbox", width=8, rng=0)
        out = model(Tensor(np.random.default_rng(0).normal(size=(3, 4, 20, 20))))
        assert out.shape == (3,)
        assert (out.data >= 0).all() and (out.data <= 1).all()

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            make_model("transformer")

    def test_models_accept_numpy_input(self):
        model = make_model("fno", width=8, modes=(3, 3), rng=0)
        out = model(np.zeros((1, 4, 16, 16)))
        assert out.shape == (1, 2, 16, 16)

    def test_ffno_fewer_parameters_than_fno(self):
        fno = make_model("fno", width=16, modes=(6, 6), depth=3, rng=0)
        ffno = make_model("ffno", width=16, modes=(6, 6), depth=3, rng=0)
        assert ffno.num_parameters() < fno.num_parameters()

    def test_wave_prior_channels(self):
        inputs = np.zeros((2, 4, 10, 12))
        inputs[:, 0] = 0.5
        inputs[:, 3] = 0.05
        prior = wave_prior_channels(inputs)
        assert prior.shape == (2, 4, 10, 12)
        assert np.abs(prior).max() <= 1.0 + 1e-12

    def test_model_gradients_flow_to_input(self):
        """Needed by the AD-based gradient methods of Table II."""
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 4, 12, 12)), requires_grad=True)
        model(x).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).max() > 0


class TestLosses:
    def test_normalized_l2_perfect_prediction(self):
        target = np.random.default_rng(0).normal(size=(2, 2, 8, 8))
        loss = NormalizedL2Loss()(Tensor(target), Tensor(target))
        assert loss.item() == pytest.approx(0.0, abs=1e-4)

    def test_normalized_l2_zero_prediction_is_one(self):
        target = np.random.default_rng(0).normal(size=(2, 2, 8, 8))
        loss = NormalizedL2Loss()(Tensor(np.zeros_like(target)), Tensor(target))
        assert loss.item() == pytest.approx(1.0, rel=1e-3)

    def test_nmse_is_squared_version(self):
        rng = np.random.default_rng(0)
        pred, target = rng.normal(size=(1, 4, 4)), rng.normal(size=(1, 4, 4))
        l2 = NormalizedL2Loss(eps=0)(Tensor(pred), Tensor(target)).item()
        nmse = NMSELoss(eps=0)(Tensor(pred), Tensor(target)).item()
        assert nmse == pytest.approx(l2**2, rel=1e-6)

    def test_losses_reject_shape_mismatch(self):
        with pytest.raises(ValueError):
            NormalizedL2Loss()(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))))
        with pytest.raises(ValueError):
            MSELoss()(Tensor(np.zeros((1, 2))), Tensor(np.zeros((2, 2))))

    def test_losses_are_differentiable(self):
        pred = Tensor(np.random.default_rng(0).normal(size=(2, 2, 4, 4)), requires_grad=True)
        target = Tensor(np.random.default_rng(1).normal(size=(2, 2, 4, 4)))
        NormalizedL2Loss()(pred, target).backward()
        assert pred.grad is not None

    def test_composite_loss(self):
        pred = Tensor(np.ones((1, 2)))
        target = Tensor(np.zeros((1, 2)))
        combined = CompositeLoss([(1.0, MSELoss()), (0.5, MSELoss())])
        assert combined(pred, target).item() == pytest.approx(1.5)

    def test_maxwell_residual_zero_for_true_field(self, tiny_bend):
        """The physics loss vanishes on the actual FDFD solution."""
        density = np.full(tiny_bend.design_shape, 0.5)
        spec = tiny_bend.specs[0]
        sim = tiny_bend.simulation(density, wavelength=spec.wavelength)
        result = sim.solve(spec.source_port)
        solver: FdfdSolver = sim.solver
        matrix = solver.system_matrix(sim.eps_r)
        pred = Tensor(np.stack([result.ez.real, result.ez.imag]), requires_grad=True)
        loss = MaxwellResidualLoss()(
            pred, matrix, result.source, wavelength_to_omega(spec.wavelength), field_scale=1.0
        )
        assert loss.item() < 1e-9
        # A perturbed field has a visibly larger residual and a usable gradient.
        noisy = Tensor(pred.data * 1.1, requires_grad=True)
        noisy_loss = MaxwellResidualLoss()(
            noisy, matrix, result.source, wavelength_to_omega(spec.wavelength), field_scale=1.0
        )
        assert noisy_loss.item() > loss.item()
        noisy_loss.backward()
        assert noisy.grad is not None

    def test_maxwell_residual_shape_check(self):
        with pytest.raises(ValueError):
            MaxwellResidualLoss()(Tensor(np.zeros((3, 4, 4))), None, None, 1.0)


class TestMetrics:
    def test_normalized_l2_metric_batched(self):
        target = np.random.default_rng(0).normal(size=(3, 2, 5, 5))
        assert normalized_l2_metric(target, target) == pytest.approx(0.0, abs=1e-9)
        assert normalized_l2_metric(np.zeros_like(target), target) == pytest.approx(1.0)

    def test_transmission_error(self):
        assert transmission_error([0.5, 0.7], [0.4, 0.9]) == pytest.approx(0.15)

    def test_s_parameter_error(self):
        pred = {"out": 0.5 + 0.5j}
        target = {"out": 0.5 - 0.5j}
        assert s_parameter_error(pred, target) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            s_parameter_error({"a": 1.0}, {"b": 1.0})


class TestTrainer:
    def test_training_reduces_loss(self, tiny_splits):
        train, test = tiny_splits
        model = make_model("fno", width=8, modes=(4, 4), depth=2, rng=0)
        trainer = Trainer(model, train, test, epochs=4, batch_size=3, learning_rate=4e-3, seed=0)
        history = trainer.train()
        losses = history.curve("train_loss")
        assert len(history) == 4
        assert losses[-1] < losses[0]
        assert "test_n_l2" in history.final()

    def test_blackbox_training(self, tiny_splits):
        train, test = tiny_splits
        model = make_model("blackbox", width=8, rng=0)
        trainer = Trainer(
            model, train, test, target="transmission", epochs=3, batch_size=3, seed=0
        )
        history = trainer.train()
        assert "train_mae" in history.final()

    @pytest.mark.parametrize(
        "kind,target", [("fno", "field"), ("blackbox", "transmission")]
    )
    def test_float32_model_trains_a_float32_loss(self, tiny_splits, kind, target):
        """Targets take the model's dtype: no float64 island in the loss graph."""
        train, _ = tiny_splits
        kwargs = dict(width=8, modes=(4, 4), depth=1) if kind == "fno" else dict(width=8)
        trainer = Trainer(
            make_model(kind, rng=0, **kwargs), train, target=target, epochs=1, batch_size=3, seed=0
        )
        dtypes = []
        loss = trainer.loss

        def recorded(prediction, targets):
            value = loss(prediction, targets)
            dtypes.append((prediction.dtype, targets.dtype, value.dtype))
            return value

        trainer.loss = recorded
        trainer.train()
        assert dtypes and set(dtypes) == {(np.dtype(np.float32),) * 3}

    def test_transmission_targets_precomputed_once(self, tiny_splits):
        """Scalar targets are built in __init__ and indexed per batch."""
        train, _ = tiny_splits
        trainer = Trainer(
            make_model("blackbox", width=8, rng=0), train, target="transmission"
        )
        np.testing.assert_array_equal(
            trainer._transmission_targets, train.transmission_array()
        )
        indices = np.array([2, 0])
        np.testing.assert_array_equal(
            trainer._transmission_targets[indices],
            np.array([train[2].transmission, train[0].transmission]),
        )
        # Field trainers skip the precompute entirely.
        field_trainer = Trainer(make_model("fno", width=8, modes=(4, 4), depth=2, rng=0), train)
        assert field_trainer._transmission_targets is None

    def test_predict_shapes(self, tiny_splits):
        train, _ = tiny_splits
        model = make_model("fno", width=8, modes=(4, 4), depth=2, rng=0)
        single = predict(model, train[0].inputs)
        batch = predict(model, train.input_array())
        assert single.shape == train[0].target.shape
        assert batch.shape == train.target_array().shape

    def test_invalid_target_kind(self, tiny_splits):
        train, _ = tiny_splits
        with pytest.raises(ValueError):
            Trainer(make_model("fno", rng=0), train, target="s_params")

    def test_empty_training_set_rejected(self, tiny_dataset):
        empty = tiny_dataset.filter(lambda s: False)
        with pytest.raises(ValueError):
            Trainer(make_model("fno", rng=0), empty)

    def test_history_curves(self, tiny_splits):
        train, _ = tiny_splits
        model = make_model("unet", base_width=8, rng=0)
        trainer = Trainer(model, train, epochs=2, batch_size=3, seed=0)
        history = trainer.train()
        assert history.curve("train_n_l2").shape == (2,)


class TestTrainingHistory:
    def test_curve_nan_pads_missing_epochs(self):
        """Regression: ragged (curriculum) records must not silently shrink.

        ``curve`` used to drop epochs missing the key, so curves of different
        keys no longer aligned by epoch.  Missing entries are now NaN.
        """
        history = TrainingHistory()
        history.append({"epoch": 0, "train_loss": 0.5})
        history.append({"epoch": 1, "train_loss": 0.4, "train_loss_high": 0.6})
        history.append({"epoch": 2, "train_loss": 0.3, "train_loss_high": 0.5})
        curve = history.curve("train_loss_high")
        assert curve.shape == (3,)
        assert np.isnan(curve[0])
        np.testing.assert_allclose(curve[1:], [0.6, 0.5])
        # Fully present keys keep their dense curve.
        np.testing.assert_allclose(history.curve("train_loss"), [0.5, 0.4, 0.3])

    def test_final_and_len(self):
        history = TrainingHistory()
        with pytest.raises(ValueError):
            history.final()
        history.append({"epoch": 0})
        assert len(history) == 1
        assert history.final() == {"epoch": 0}


class TestCurricula:
    def test_available(self):
        assert available_curricula() == ["adaptive", "finetune", "mixed", "warmup"]
        with pytest.raises(ValueError):
            make_curriculum("annealed")

    def test_warmup_stages(self):
        curriculum = WarmupCurriculum(("low", "high"), warmup_fraction=0.5)
        early = curriculum.stage(0, 4)
        late = curriculum.stage(2, 4)
        assert set(early.sample_fractions) == {"low"}
        assert set(late.sample_fractions) == {"low", "high"}

    def test_finetune_stages(self):
        curriculum = FinetuneCurriculum(("low", "high"), finetune_fraction=0.5)
        assert set(curriculum.stage(0, 4).sample_fractions) == {"low", "high"}
        assert set(curriculum.stage(3, 4).sample_fractions) == {"high"}

    def test_mixed_ratios_and_weights(self):
        curriculum = MixedCurriculum(
            ("low", "high"), ratios={"low": 0.5}, loss_weights={"high": 2.0}
        )
        stage = curriculum.stage(0, 10)
        assert stage.sample_fractions == {"low": 0.5, "high": 1.0}
        assert stage.weight("high") == 2.0
        assert stage.weight("low") == 1.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            WarmupCurriculum(("low",), warmup_fraction=1.5)
        with pytest.raises(ValueError):
            MixedCurriculum(("low",), ratios={"high": 1.0})
        with pytest.raises(ValueError):
            MixedCurriculum(("low", "high"), loss_weights={"ultra": 1.0})
        with pytest.raises(ValueError):
            MixedCurriculum(())
        with pytest.raises(ValueError):
            MixedCurriculum(("low", "low"))

    def test_non_positive_loss_weights_rejected(self):
        """Regression: weight 0 used to crash the loss un-weighting mid-epoch;
        muting a tier is a sampling decision, not a zero weight."""
        with pytest.raises(ValueError, match="positive"):
            MixedCurriculum(("low", "high"), loss_weights={"low": 0.0})
        with pytest.raises(ValueError, match="positive"):
            WarmupCurriculum(("low", "high"), loss_weights={"high": -1.0})

    def test_describe_is_json_serializable(self):
        import json

        for name in available_curricula():
            payload = make_curriculum(name, fidelities=("low", "high")).describe()
            assert json.loads(json.dumps(payload))["name"] == name


class TestCurriculumTraining:
    @pytest.fixture(scope="class")
    def multi_fidelity_set(self, tiny_shard_run):
        _, _, merged = tiny_shard_run
        return merged

    def test_warmup_records_fidelity_mix(self, multi_fidelity_set):
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
        curriculum = WarmupCurriculum(
            ("low", "high"), warmup_fraction=0.5, loss_weights={"high": 2.0}
        )
        history = Trainer(
            model, multi_fidelity_set, epochs=4, batch_size=3, seed=0,
            curriculum=curriculum,
        ).train()
        first, last = history.epochs[0], history.epochs[-1]
        assert "samples_low" in first and "samples_high" not in first
        assert "samples_high" in last and last["loss_weight_high"] == 2.0
        # The ragged per-fidelity curve NaN-pads the warmup epochs.
        curve = history.curve("train_loss_high")
        assert curve.shape == (4,)
        assert np.isnan(curve[:2]).all() and np.isfinite(curve[2:]).all()

    def test_finetune_final_epochs_high_only(self, multi_fidelity_set):
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
        history = Trainer(
            model, multi_fidelity_set, epochs=3, batch_size=3, seed=0,
            curriculum=FinetuneCurriculum(("low", "high"), finetune_fraction=0.34),
        ).train()
        assert "samples_low" not in history.final()
        assert "samples_high" in history.final()

    def test_curriculum_by_name_infers_fidelities(self, multi_fidelity_set):
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
        trainer = Trainer(
            model, multi_fidelity_set, epochs=2, batch_size=3, seed=0,
            curriculum="mixed",
        )
        assert trainer.curriculum.fidelities == ("low", "high")
        history = trainer.train()
        assert history.final()["samples_low"] > 0
        assert history.final()["samples_high"] > 0

    def test_mixed_fraction_subsamples_pool(self, multi_fidelity_set):
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
        curriculum = MixedCurriculum(("low", "high"), ratios={"low": 0.5})
        history = Trainer(
            model, multi_fidelity_set, epochs=1, batch_size=3, seed=0,
            curriculum=curriculum,
        ).train()
        low_pool = int((multi_fidelity_set.fidelity_array() == "low").sum())
        assert history.final()["samples_low"] == max(1, round(0.5 * low_pool))

    def test_curriculum_missing_data_fidelity_rejected(self, multi_fidelity_set):
        """A data tier the curriculum does not schedule would silently drop
        from every epoch — rejected at construction instead."""
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
        with pytest.raises(ValueError, match="silently excluded"):
            Trainer(
                model, multi_fidelity_set, epochs=1, batch_size=3, seed=0,
                curriculum=MixedCurriculum(("low",), ratios={"low": 1.0}),
            )

    def test_curriculum_selecting_nothing_rejected(self, multi_fidelity_set):
        low_only = multi_fidelity_set.filter(lambda s: s.fidelity == "low")
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
        trainer = Trainer(
            model, low_only, epochs=1, batch_size=3, seed=0,
            # "high" is scheduled but absent from the restricted data — legal
            # at construction (subset views), but a stage sampling only
            # "high" finds nothing and must fail loudly.
            curriculum=MixedCurriculum(("low", "high"), ratios={"low": 0.0}),
        )
        with pytest.raises(ValueError, match="selects no samples"):
            trainer.train()

    def test_curriculum_training_bit_identical_on_loader(self, tiny_shard_run):
        """Curriculum + loader path matches curriculum + in-memory path."""
        from repro.data.loader import ShardDataLoader

        config, shard_dir, merged = tiny_shard_run
        loader = ShardDataLoader.from_directory(
            shard_dir, fidelities=config.fidelities, cache_shards=2
        )
        kwargs = dict(epochs=3, batch_size=3, seed=9)
        histories = []
        for data in (merged, loader):
            model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
            curriculum = WarmupCurriculum(
                ("low", "high"), warmup_fraction=0.4, loss_weights={"high": 1.5}
            )
            histories.append(
                Trainer(model, data=data, curriculum=curriculum, **kwargs).train()
            )
        assert histories[0].epochs == histories[1].epochs


class TestAdaptiveCurriculum:
    """The validation-error-driven schedule: promote tiers on plateau."""

    def make(self, **kwargs):
        from repro.train import AdaptiveCurriculum

        defaults = dict(fidelities=("low", "high"), patience=2, min_improvement=0.05)
        defaults.update(kwargs)
        return AdaptiveCurriculum(**defaults)

    def test_starts_on_cheapest_tier(self):
        curriculum = self.make()
        assert set(curriculum.stage(0, 10).sample_fractions) == {"low"}
        assert curriculum.active_fidelities == ("low",)

    def test_plateau_promotes_next_tier(self):
        curriculum = self.make(patience=2)
        curriculum.observe({"test_n_l2": 0.5})     # baseline
        curriculum.observe({"test_n_l2": 0.5})     # stall 1
        assert curriculum.active_fidelities == ("low",)
        curriculum.observe({"test_n_l2": 0.499})   # < 5% better: stall 2 -> promote
        assert curriculum.active_fidelities == ("low", "high")
        assert set(curriculum.stage(3, 10).sample_fractions) == {"low", "high"}
        assert [fid for _, fid in curriculum.promotions] == ["high"]

    def test_improvement_resets_the_plateau_watch(self):
        curriculum = self.make(patience=2)
        curriculum.observe({"test_n_l2": 0.5})
        curriculum.observe({"test_n_l2": 0.5})     # stall 1
        curriculum.observe({"test_n_l2": 0.4})     # real improvement: reset
        curriculum.observe({"test_n_l2": 0.4})     # stall 1 again
        assert curriculum.active_fidelities == ("low",)

    def test_monitors_newest_tier_then_falls_back(self):
        curriculum = self.make(patience=1)
        # Per-tier validation beats the aggregate when both are present.
        curriculum.observe({"test_n_l2_low": 0.5, "test_n_l2": 123.0})
        curriculum.observe({"test_n_l2_low": 0.5, "test_n_l2": 0.001})
        assert curriculum.active_fidelities == ("low", "high")
        # Without any validation keys the train loss drives the watch.
        fallback = self.make(patience=1)
        fallback.observe({"train_loss": 1.0})
        fallback.observe({"train_loss": 1.0})
        assert fallback.active_fidelities == ("low", "high")

    def test_promotion_stops_at_the_last_tier(self):
        curriculum = self.make(patience=1)
        for _ in range(6):
            curriculum.observe({"test_n_l2": 1.0})
        assert curriculum.active_fidelities == ("low", "high")
        assert len(curriculum.promotions) == 1

    def test_reset(self):
        curriculum = self.make(patience=1)
        curriculum.observe({"test_n_l2": 1.0})
        curriculum.observe({"test_n_l2": 1.0})
        curriculum.reset()
        assert curriculum.active_fidelities == ("low",)
        assert curriculum.promotions == []

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="patience"):
            self.make(patience=0)
        with pytest.raises(ValueError, match="min_improvement"):
            self.make(min_improvement=-0.1)

    def test_describe_records_promotions(self):
        import json

        curriculum = self.make(patience=1)
        curriculum.observe({"test_n_l2": 1.0})
        curriculum.observe({"test_n_l2": 1.0})
        payload = json.loads(json.dumps(curriculum.describe()))
        assert payload["promotions"] == [[1, "high"]]

    def test_trainer_integration_promotes_and_records_per_tier_val(
        self, tiny_shard_run
    ):
        """End to end: the trainer feeds epoch records back, the curriculum
        promotes mid-run, and per-tier validation metrics appear."""
        from repro.data.dataset import split_dataset

        _, _, merged = tiny_shard_run
        train, test = split_dataset(merged, train_fraction=0.7, rng=0)
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
        # min_improvement=0.9 means nothing ever counts as improving, so the
        # promotion fires deterministically after `patience` epochs.
        curriculum = self.make(patience=1, min_improvement=0.9)
        history = Trainer(
            model, train, test_set=test, epochs=4, batch_size=3, seed=0,
            curriculum=curriculum,
        ).train()
        first, last = history.epochs[0], history.epochs[-1]
        assert "samples_low" in first and "samples_high" not in first
        assert "samples_high" in last
        assert curriculum.promotions and curriculum.promotions[0][1] == "high"
        # Multi-fidelity validation: per-tier curves recorded every epoch.
        assert "test_n_l2_low" in first and "test_n_l2_high" in first
        assert np.isfinite(history.curve("test_n_l2_high")).all()
