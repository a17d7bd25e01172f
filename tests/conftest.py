"""Shared fixtures: tiny devices and datasets sized for fast unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import split_dataset
from repro.data.generator import DatasetGenerator, GeneratorConfig, generate_dataset
from repro.devices import WaveguideBend, WaveguideCrossing


TINY_DEVICE_KWARGS = dict(domain=3.0, design_size=1.4, dl=0.1)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the golden regression fixtures under tests/golden/",
    )


@pytest.fixture(scope="session")
def update_golden(request) -> bool:
    """Whether this run should rewrite the golden fixtures."""
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture(scope="session")
def tiny_bend() -> WaveguideBend:
    """A small, fast-to-simulate bend used across the physics tests."""
    return WaveguideBend(**TINY_DEVICE_KWARGS)


@pytest.fixture(scope="session")
def tiny_crossing() -> WaveguideCrossing:
    """A small crossing (multiple monitor ports)."""
    return WaveguideCrossing(**TINY_DEVICE_KWARGS)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small labelled dataset on the tiny bend (random sampling, no gradients)."""
    return generate_dataset(
        "bending",
        "random",
        num_designs=6,
        seed=0,
        with_gradient=False,
        device_kwargs=TINY_DEVICE_KWARGS,
    )


@pytest.fixture(scope="session")
def tiny_splits(tiny_dataset):
    """Train/test split of the tiny dataset."""
    return split_dataset(tiny_dataset, train_fraction=0.7, rng=0)


@pytest.fixture(scope="session")
def tiny_shard_run(tmp_path_factory):
    """A small sharded multi-fidelity generation run with persisted artifacts.

    Returns ``(config, shard_dir, merged_dataset)``: 6 designs x 2 fidelities
    in 12 single-design shards — a shard count far above the per-epoch batch
    count, which is what the bounded-memory loader tests need.  The explicit
    ``dl`` keeps both fidelity tiers on one grid (the tiers differ by solver
    engine: recycled against direct), so samples stack across fidelities.
    """
    shard_dir = tmp_path_factory.mktemp("shards")
    config = GeneratorConfig(
        device_name="bending",
        strategy="random",
        num_designs=6,
        fidelities=("low", "high"),
        with_gradient=False,
        seed=0,
        device_kwargs=TINY_DEVICE_KWARGS,
        engine={"low": "recycled", "high": "direct"},
        shard_size=1,
        shard_dir=str(shard_dir),
    )
    merged = DatasetGenerator(config).generate()
    return config, shard_dir, merged


@pytest.fixture(scope="session")
def tiny_checkpoint(tmp_path_factory, tiny_splits):
    """A quickly trained FNO surrogate saved as a promotion checkpoint.

    Returns ``(path, model, meta)``; accuracy is irrelevant — these tests
    exercise the promotion plumbing, not the surrogate quality.
    """
    from repro.surrogate import CheckpointMeta, dataset_fingerprint, save_checkpoint
    from repro.train import Trainer, make_model

    train, _ = tiny_splits
    model_kwargs = dict(width=8, modes=(3, 3), depth=2, rng=0)
    model = make_model("fno", **model_kwargs)
    Trainer(model, train, epochs=2, batch_size=4, seed=0).train()
    meta = CheckpointMeta(
        model_name="fno",
        model_kwargs=model_kwargs,
        field_scale=train.field_scale,
        dataset_fingerprint=dataset_fingerprint(train),
    )
    path = tmp_path_factory.mktemp("checkpoints") / "tiny_fno.npz"
    save_checkpoint(path, model, meta)
    return path, model, meta
