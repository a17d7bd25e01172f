"""Tests for surrogate checkpoints and engine promotion.

Covers the serve side of the generate→train→serve loop: checkpoint
round-trips (weights + normalization statistics + dataset fingerprint),
``promote_to_engine``, and ``engine="neural:<checkpoint>"`` selection through
``Simulation``, ``DatasetGenerator`` and ``InverseDesignProblem``.
"""

import json

import numpy as np
import pytest

from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.data.loader import ShardDataLoader
from repro.devices import WaveguideBend
from repro.fdfd.engine import make_engine, resolve_engine
from repro.surrogate import (
    CheckpointMeta,
    NeuralEngine,
    dataset_fingerprint,
    load_checkpoint,
    promote_to_engine,
    save_checkpoint,
)
from repro.train import make_model
from repro.train.trainer import predict

TINY_DEVICE_KWARGS = dict(domain=3.0, design_size=1.4, dl=0.1)


class TestCheckpointRoundTrip:
    def test_weights_and_meta_survive(self, tiny_checkpoint):
        path, model, meta = tiny_checkpoint
        loaded, loaded_meta = load_checkpoint(path)
        for (name, param), (loaded_name, loaded_param) in zip(
            model.named_parameters(), loaded.named_parameters()
        ):
            assert name == loaded_name
            assert loaded_param.data.dtype == param.data.dtype == np.float32
            np.testing.assert_array_equal(param.data, loaded_param.data)
        assert loaded_meta.model_name == meta.model_name
        assert loaded_meta.field_scale == meta.field_scale
        assert loaded_meta.dataset_fingerprint == meta.dataset_fingerprint
        assert loaded_meta.target == "field"
        # JSON turns the modes tuple into a list; loading restores it.
        assert loaded_meta.model_kwargs["modes"] == (3, 3)

    def test_loaded_model_predicts_identically(self, tiny_checkpoint, tiny_splits):
        path, model, _ = tiny_checkpoint
        loaded, _ = load_checkpoint(path)
        train, _ = tiny_splits
        inputs = train.input_array()[:2]
        np.testing.assert_array_equal(predict(model, inputs), predict(loaded, inputs))

    def test_float64_checkpoint_loads_cast_and_serves(self, tmp_path, tiny_checkpoint):
        """Checkpoints written when parameters were float64 keep loading.

        The file is written by hand in that layout: format version 1 and
        float64 ``param::`` arrays.
        """
        _, model, meta = tiny_checkpoint
        state = {name: value.astype(np.float64) for name, value in model.state_dict().items()}
        header = {
            "version": 1,
            "model_name": meta.model_name,
            "model_kwargs": meta.model_kwargs,
            "field_scale": meta.field_scale,
            "dataset_fingerprint": meta.dataset_fingerprint,
            "target": "field",
            "extras": {},
        }
        path = tmp_path / "float64.npz"
        np.savez_compressed(
            path,
            __header__=np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
            **{f"param::{name}": value for name, value in state.items()},
        )
        loaded, _ = load_checkpoint(path)
        for name, param in loaded.named_parameters():
            assert param.data.dtype == np.float32
            np.testing.assert_array_equal(param.data, state[name].astype(np.float32))

        device = WaveguideBend(**TINY_DEVICE_KWARGS)
        sim = device.simulation(np.full(device.design_shape, 0.5), engine=f"neural:{path}")
        ez = sim.solve_multi([("in", 0)])[0].ez
        assert ez.dtype == np.complex128
        assert np.isfinite(ez).all()

    def test_non_checkpoint_rejected(self, tmp_path):
        bogus = tmp_path / "weights.npz"
        np.savez(bogus, w=np.zeros(3))
        with pytest.raises(ValueError, match="not a surrogate checkpoint"):
            load_checkpoint(bogus)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_non_json_model_kwargs_rejected_at_save(self, tmp_path):
        """Regression: default=str used to stringify bad kwargs silently and
        fail only inside make_model on load."""
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
        meta = CheckpointMeta("fno", dict(width=8, rng=np.random.default_rng(0)))
        with pytest.raises(ValueError, match="JSON-serializable"):
            save_checkpoint(tmp_path / "bad.npz", model, meta)

    def test_non_json_extras_rejected_at_save(self, tmp_path):
        """Extras must round-trip too — np.int64(30) stringifying to \"30\"
        is the kind of silent corruption the save-time check exists for."""
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
        meta = CheckpointMeta(
            "fno", dict(width=8, modes=(3, 3), depth=2, rng=0),
            extras={"epochs": np.int64(30)},
        )
        with pytest.raises(ValueError, match="JSON-serializable"):
            save_checkpoint(tmp_path / "bad_extras.npz", model, meta)


class TestDatasetFingerprint:
    def test_loader_and_dataset_fingerprint_identically(self, tiny_shard_run):
        config, shard_dir, merged = tiny_shard_run
        loader = ShardDataLoader.from_directory(shard_dir, fidelities=config.fidelities)
        assert dataset_fingerprint(merged) == dataset_fingerprint(loader)

    def test_different_data_different_fingerprint(self, tiny_shard_run):
        _, _, merged = tiny_shard_run
        subset = merged.filter(lambda s: s.fidelity == "high")
        assert dataset_fingerprint(merged) != dataset_fingerprint(subset)


class TestPromotion:
    def test_promote_from_path(self, tiny_checkpoint):
        path, _, meta = tiny_checkpoint
        engine = promote_to_engine(path)
        assert isinstance(engine, NeuralEngine)
        assert engine.field_scale == meta.field_scale
        assert engine.supports_warm_start is False

    def test_promote_live_model_requires_meta(self, tiny_checkpoint):
        _, model, meta = tiny_checkpoint
        assert isinstance(promote_to_engine(model, meta), NeuralEngine)
        with pytest.raises(ValueError, match="CheckpointMeta"):
            promote_to_engine(model)

    def test_non_field_checkpoint_rejected(self, tmp_path):
        model = make_model("blackbox", width=8, rng=0)
        meta = CheckpointMeta("blackbox", dict(width=8, rng=0), target="transmission")
        path = save_checkpoint(tmp_path / "bb.npz", model, meta)
        with pytest.raises(ValueError, match="field-prediction"):
            promote_to_engine(path)

    def test_registry_name_with_checkpoint_suffix(self, tiny_checkpoint):
        path, _, meta = tiny_checkpoint
        engine = make_engine(f"neural:{path}")
        assert isinstance(engine, NeuralEngine)
        assert engine.field_scale == meta.field_scale
        # resolve_engine (the path every engine= argument goes through) too.
        assert isinstance(resolve_engine(f"neural:{path}"), NeuralEngine)

    def test_suffix_on_non_checkpoint_engine_rejected(self):
        with pytest.raises(ValueError, match="suffix"):
            make_engine("direct:whatever")
        with pytest.raises(ValueError, match="empty"):
            make_engine("neural:")

    def test_neural_factory_rejects_model_and_checkpoint(self, tiny_checkpoint):
        path, model, _ = tiny_checkpoint
        with pytest.raises(ValueError, match="not both"):
            make_engine(f"neural:{path}", model=model)

    def test_neural_factory_rejects_field_scale_and_checkpoint(self, tiny_checkpoint):
        """An explicit field_scale would be silently shadowed by the
        checkpoint's stored normalization — rejected instead."""
        path, _, _ = tiny_checkpoint
        with pytest.raises(ValueError, match="field_scale"):
            make_engine(f"neural:{path}", field_scale=2.0)

    def test_checkpoint_load_errors_not_masked(self, tmp_path):
        """Regression: a broken checkpoint must surface its own error, not a
        misleading 'no suffix support' message."""
        with pytest.raises(FileNotFoundError):
            make_engine(f"neural:{tmp_path / 'missing.npz'}")


class TestServedEngine:
    def test_simulation_solve_multi(self, tiny_checkpoint):
        path, _, _ = tiny_checkpoint
        device = WaveguideBend(**TINY_DEVICE_KWARGS)
        sim = device.simulation(
            np.full(device.design_shape, 0.5), engine=f"neural:{path}"
        )
        results = sim.solve_multi([("in", 0)])
        assert len(results) == 1
        assert results[0].ez.shape == device.grid.shape
        assert np.isfinite(results[0].ez).all()
        assert all(np.isfinite(v) for v in results[0].transmissions.values())

    def test_dataset_generator_end_to_end(self, tiny_checkpoint):
        path, _, _ = tiny_checkpoint
        config = GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=2,
            fidelities=("low",),
            with_gradient=False,
            seed=1,
            device_kwargs=TINY_DEVICE_KWARGS,
            engine=f"neural:{path}",
        )
        dataset = DatasetGenerator(config).generate()
        assert len(dataset) == 2
        assert np.isfinite(dataset.input_array()).all()
        assert np.isfinite(dataset.target_array()).all()
        assert dataset.metadata["engine"]["low"] == f"neural:{path}"

    def test_inverse_design_problem_accepts_checkpoint_engine(self, tiny_checkpoint):
        from repro.invdes.problem import InverseDesignProblem

        path, _, _ = tiny_checkpoint
        device = WaveguideBend(**TINY_DEVICE_KWARGS)
        problem = InverseDesignProblem(device, engine=f"neural:{path}")
        theta = problem.initial_theta(rng=0)
        value, grad = problem.value_and_grad(theta)
        assert np.isfinite(value)
        assert grad.shape == theta.shape
        assert np.isfinite(grad).all()
