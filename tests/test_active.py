"""Tests for the active-learning loop and its per-sample weight plumbing.

The loop's structural contracts are cheap to test end to end at toy scale:
acquired designs get fresh ids, their labels land in the growing shard
directory, the loader refresh folds them in without touching existing bytes,
acquisition weights travel shard → loader → trainer, and the finished loop
promotes a servable checkpoint.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.data.dataset import datasets_bit_identical
from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.data.loader import ShardDataLoader
from repro.data.sampling import DesignSample
from repro.data.shards import shard_fingerprint, plan_shards
from repro.train import ActiveLearningConfig, ActiveLearningLoop, Trainer, make_model
from repro.train.active import score_candidates

TINY_DEVICE_KWARGS = dict(domain=3.0, design_size=1.4, dl=0.1)
TINY_MODEL_KWARGS = dict(width=4, modes=(2, 2), depth=1, rng=0)


def tiny_generator_config(shard_dir=None, **overrides):
    config = GeneratorConfig(
        device_name="bending",
        strategy="random",
        num_designs=2,
        fidelities=("high",),
        engine="direct",
        with_gradient=False,
        seed=0,
        device_kwargs=TINY_DEVICE_KWARGS,
        shard_size=2,
        shard_dir=str(shard_dir) if shard_dir is not None else None,
    )
    return replace(config, **overrides) if overrides else config


def tiny_loop(tmp_path, acquisition="disagreement", **config_kwargs):
    val_set = DatasetGenerator(tiny_generator_config(seed=77)).generate()
    defaults = dict(
        rounds=2,
        candidates_per_round=3,
        acquire_per_round=1,
        epochs_per_round=1,
        acquisition=acquisition,
        seed=0,
    )
    defaults.update(config_kwargs)
    return ActiveLearningLoop(
        model=make_model("fno", **TINY_MODEL_KWARGS),
        model_name="fno",
        model_kwargs=TINY_MODEL_KWARGS,
        generator_config=tiny_generator_config(tmp_path / "shards"),
        val_set=val_set,
        config=ActiveLearningConfig(**defaults),
        trainer_kwargs=dict(batch_size=2, learning_rate=3e-3),
    )


class TestWeightPlumbing:
    """DesignSample.weight → shard extras → dataset/loader → trainer."""

    def test_weights_ride_through_generation(self, tmp_path):
        config = tiny_generator_config(tmp_path / "w")
        device_shape = (14, 14)
        rng = np.random.default_rng(0)
        designs = [
            DesignSample(density=rng.uniform(size=device_shape), stage="x", weight=2.5),
            DesignSample(density=rng.uniform(size=device_shape), stage="x"),
        ]
        dataset = DatasetGenerator(config).generate(designs=designs)
        assert dataset.sample_weight_array().tolist() == [2.5, 1.0]
        loader = ShardDataLoader.from_directory(
            config.shard_dir, fidelities=config.fidelities
        )
        assert loader.sample_weight_array().tolist() == [2.5, 1.0]
        # The dataset round-trips weights through save/load too.
        path = tmp_path / "weighted.npz"
        dataset.save(path)
        from repro.data.dataset import PhotonicDataset

        assert PhotonicDataset.load(path).sample_weight_array().tolist() == [2.5, 1.0]

    def test_weights_change_the_shard_fingerprint(self):
        config = tiny_generator_config()
        spec = plan_shards(config)[0]
        densities = [np.full((4, 4), 0.5), np.full((4, 4), 0.25)]
        stages = ["a", "b"]
        base = shard_fingerprint(config, spec, densities, stages)
        assert base == shard_fingerprint(
            config, spec, densities, stages, weights=[1.0, 1.0]
        )
        assert base != shard_fingerprint(
            config, spec, densities, stages, weights=[2.0, 1.0]
        )

    @staticmethod
    def reweighted(dataset, weights):
        """A copy of ``dataset`` with per-sample weights (samples copied —
        the originals belong to a shared session fixture)."""
        from dataclasses import replace as replace_sample

        from repro.data.dataset import PhotonicDataset

        return PhotonicDataset(
            [
                replace_sample(sample, weight=weight)
                for sample, weight in zip(dataset.samples, weights)
            ],
            field_scale=dataset.field_scale,
            metadata=dict(dataset.metadata),
        )

    def test_uniform_weights_train_bit_identical(self, tiny_splits):
        """Scaling every weight by the same power of two must not change the
        training trajectory — the weighted mean reduces to the plain mean."""
        train, _ = tiny_splits
        doubled = self.reweighted(train, [2.0] * len(train))
        histories = []
        for data in (train, doubled):
            model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
            histories.append(
                Trainer(model, data, epochs=2, batch_size=4, seed=0).train()
            )
        assert histories[0].epochs == histories[1].epochs

    def test_non_uniform_weights_change_training(self, tiny_splits):
        train, _ = tiny_splits
        skewed = self.reweighted(train, [50.0] + [1.0] * (len(train) - 1))
        histories = []
        for data in (train, skewed):
            model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
            histories.append(
                Trainer(model, data, epochs=2, batch_size=4, seed=0).train()
            )
        assert histories[0].epochs != histories[1].epochs

    def test_trainer_rebinds_arrays_after_loader_refresh(self, tmp_path):
        """Regression: the trainer snapshots per-sample targets/weights; a
        loader refreshed mid-lifetime (active learning) must be re-read at
        train() time — stale snapshots crashed transmission training and
        silently dropped appended acquisition weights."""
        config = tiny_generator_config(tmp_path / "grow")
        DatasetGenerator(config).generate()
        loader = ShardDataLoader.from_directory(
            config.shard_dir, fidelities=config.fidelities
        )
        trainer = Trainer(
            make_model("blackbox", width=8, rng=0),
            data=loader,
            target="transmission",
            epochs=1,
            batch_size=2,
            seed=0,
        )
        trainer.train()
        # Grow the directory with a weighted acquisition-style append.
        rng = np.random.default_rng(3)
        DatasetGenerator(
            replace(config, num_designs=1, design_id_offset=2, seed=5)
        ).generate(
            designs=[
                DesignSample(density=rng.uniform(size=(14, 14)), stage="x", weight=3.0)
            ]
        )
        loader.refresh()
        trainer.train()  # used to raise IndexError on the stale target array
        assert trainer._transmission_targets.shape == (len(loader),)

        field_trainer = Trainer(
            make_model("fno", width=4, modes=(2, 2), depth=1, rng=0),
            data=loader,
            epochs=1,
            batch_size=2,
            seed=0,
        )
        # Weights were uniform at construction time only if the loader had
        # not yet grown; after this refresh-aware rebind they must be active.
        field_trainer.train()
        assert field_trainer._sample_weights is not None
        assert field_trainer._sample_weights.tolist() == loader.sample_weight_array().tolist()

    def test_non_positive_weights_rejected(self, tiny_splits):
        train, _ = tiny_splits
        bad = self.reweighted(train, [0.0] + [1.0] * (len(train) - 1))
        with pytest.raises(ValueError, match="positive"):
            Trainer(
                make_model("fno", width=8, modes=(3, 3), depth=2, rng=0), bad,
                epochs=1, batch_size=4, seed=0,
            )


class TestActiveLearningConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="rounds"):
            ActiveLearningConfig(rounds=0)
        with pytest.raises(ValueError, match="acquisition"):
            ActiveLearningConfig(acquisition="entropy")
        with pytest.raises(ValueError, match="candidates_per_round"):
            ActiveLearningConfig(candidates_per_round=2, acquire_per_round=3)
        with pytest.raises(ValueError, match="max_weight"):
            ActiveLearningConfig(max_weight=0.5)

    def test_loop_requires_shard_dir(self):
        with pytest.raises(ValueError, match="shard_dir"):
            ActiveLearningLoop(
                model=make_model("fno", **TINY_MODEL_KWARGS),
                model_name="fno",
                model_kwargs=TINY_MODEL_KWARGS,
                generator_config=tiny_generator_config(),
                val_set=None,
            )


class TestActiveLearningLoop:
    @pytest.mark.parametrize("acquisition", ["disagreement", "residual", "random"])
    def test_loop_contracts(self, tmp_path, acquisition):
        loop = tiny_loop(tmp_path, acquisition=acquisition)
        records = loop.run()
        assert len(records) == 2
        # Round 0 trains on the seed, acquires one fresh design.
        assert records[0].exact_labels == 2
        assert records[0].acquired_design_ids == [2]
        # Round 1 trains on the grown set, acquires nothing (final round).
        assert records[1].exact_labels == 3
        assert records[1].acquired_design_ids == []
        assert all(np.isfinite(r.val_n_l2) for r in records)
        assert len(loop.loader) == 3
        if acquisition == "disagreement":
            assert records[0].cheap_solves > 0
            assert len(records[0].acquisition_scores) == 3
            assert all(w >= 1.0 for w in records[0].sample_weights)
        # The finished loop promoted a servable checkpoint.
        assert loop.checkpoint.startswith("neural:")
        assert Path(loop.checkpoint.split(":", 1)[1]).is_file()

    def test_refresh_keeps_existing_samples_identical(self, tmp_path):
        loop = tiny_loop(tmp_path)
        loop._ensure_seed_data()
        before = loop.loader.materialize()
        loop.run()
        after = loop.loader.materialize()
        from repro.data.dataset import PhotonicDataset

        assert datasets_bit_identical(
            before,
            PhotonicDataset(
                after.samples[: len(before)], field_scale=before.field_scale
            ),
        )

    def test_rerun_resumes_seed_shards(self, tmp_path):
        """The seed generation is resumable: a second loop over the same
        shard_dir must not recompute (or re-id) the seed designs."""
        loop = tiny_loop(tmp_path)
        loop._ensure_seed_data()
        seed_paths = set(Path(loop.generator_config.shard_dir).glob("shard_*.npz"))
        again = tiny_loop(tmp_path)
        again._ensure_seed_data()
        assert set(Path(again.generator_config.shard_dir).glob("shard_*.npz")) == seed_paths
        assert again._next_design_id == 2

    def test_recycled_cheap_engine_scores_like_direct(self, tmp_path):
        """The cheap tier is resolved on the device's design region, so the
        recycled tier builds and scores as the exact one does."""
        scores = {}
        for cheap_engine in ("direct", "recycled"):
            loop = tiny_loop(tmp_path / cheap_engine, cheap_engine=cheap_engine)
            loop._ensure_seed_data()
            _, scores[cheap_engine], cheap_solves = loop._acquire(0)
            assert cheap_solves > 0
        assert np.isfinite(scores["recycled"]).all()
        np.testing.assert_allclose(scores["recycled"], scores["direct"], rtol=1e-4)

    def test_score_candidates_validation(self, tiny_bend):
        with pytest.raises(ValueError, match="disagreement"):
            score_candidates(tiny_bend, [], None, acquisition="entropy")
        with pytest.raises(ValueError, match="cheap engine"):
            score_candidates(tiny_bend, [], None, acquisition="disagreement")
