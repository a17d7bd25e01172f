"""Model-zoo training benchmark over the streaming multi-fidelity pipeline.

Exercises the full generate→train→serve loop at benchmark scale:

1. **Generate** a paired two-tier dataset through the sharded generator
   (both tiers solved exactly on one grid, so samples pair by design),
   persisting shard artifacts.
2. **Train** the field-model zoo (FNO / F-FNO / UNet / NeurOLight) through the
   streaming :class:`~repro.data.loader.ShardDataLoader` under each fidelity
   curriculum (none / warmup / mixed / finetune).
3. **Evaluate** every (model, curriculum) cell with the standardized protocol
   (:func:`repro.train.evaluation.evaluation_protocol`): train/test N-L2,
   served transmission error, gradient similarity vs the exact solver.
4. **Promote** the best model to a checkpoint and serve it as
   ``engine="neural:<checkpoint>"`` through ``Simulation.solve_multi`` and
   ``DatasetGenerator`` — the surrogate-as-fidelity-tier claim, end to end.

Writes ``BENCH_training.json``.  ``--quick`` shrinks the matrix to a CI smoke
gate that *asserts* the pipeline's contracts: loader training bit-identical
to in-memory training, loss decreasing, finite metrics, and a servable
promoted engine.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import BENCH, DEVICE_KWARGS, print_table, write_bench_record

from repro.data.dataset import split_dataset
from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.data.loader import ShardDataLoader
from repro.devices.factory import make_device
from repro.surrogate import CheckpointMeta, dataset_fingerprint, save_checkpoint
from repro.train import Trainer, make_curriculum, make_model
from repro.train.evaluation import evaluation_protocol

CURRICULA = ("none", "warmup", "mixed", "finetune")
MODELS = ("fno", "ffno", "unet", "neurolight")


def generation_config(shard_dir: str, quick: bool) -> GeneratorConfig:
    # Explicit dl keeps both fidelity tiers on one grid, which is what lets
    # low/high samples of one design pair up for curriculum training.  Both
    # tiers are labelled by the exact solver.
    device_kwargs = dict(DEVICE_KWARGS, dl=0.1)
    if quick:
        device_kwargs = dict(domain=3.0, design_size=1.4, dl=0.1)
    return GeneratorConfig(
        device_name="bending",
        strategy="random",
        num_designs=6 if quick else BENCH.num_designs,
        fidelities=("low", "high"),
        with_gradient=False,
        seed=0,
        device_kwargs=device_kwargs,
        engine="direct",
        shard_size=2,
        shard_dir=shard_dir,
    )


def build_zoo_model(name: str, quick: bool, rng: int = 0):
    """``(model, constructor_kwargs)`` — the kwargs travel into checkpoints.

    Returning the exact kwargs the model was built with (instead of
    re-deriving them at promotion time) keeps the saved checkpoint's
    architecture description from drifting out of sync with the trained
    weights.
    """
    if name == "unet":
        kwargs = dict(base_width=8 if quick else BENCH.unet_width, rng=rng)
    elif quick:
        kwargs = dict(width=8, modes=(3, 3), depth=2, rng=rng)
    else:
        kwargs = dict(width=BENCH.width, modes=BENCH.modes, depth=BENCH.depth, rng=rng)
    return make_model(name, **kwargs), kwargs


def make_trainer_curriculum(name: str):
    if name == "none":
        return None
    return make_curriculum(
        name, fidelities=("low", "high"), loss_weights={"high": 2.0}
    )


def assert_loader_bit_identity(config, shard_dir, merged, epochs: int) -> None:
    """The streaming pipeline's core contract, asserted in the CI gate."""
    loader = ShardDataLoader.from_directory(shard_dir, fidelities=config.fidelities)
    kwargs = dict(epochs=epochs, batch_size=4, seed=3)
    in_memory = Trainer(
        make_model("fno", width=8, modes=(3, 3), depth=2, rng=0), merged, **kwargs
    ).train()
    streamed = Trainer(
        make_model("fno", width=8, modes=(3, 3), depth=2, rng=0), data=loader, **kwargs
    ).train()
    assert in_memory.epochs == streamed.epochs, (
        "loader-based training diverged from in-memory training"
    )


def run(quick: bool) -> dict:
    models = MODELS[:1] if quick else MODELS
    curricula = CURRICULA[:2] if quick else CURRICULA
    epochs = 3 if quick else BENCH.epochs
    batch_size = 4 if quick else BENCH.batch_size
    samples = 2 if quick else BENCH.grad_samples

    with tempfile.TemporaryDirectory(prefix="bench_training_") as shard_dir:
        config = generation_config(shard_dir, quick)
        start = time.perf_counter()
        merged = DatasetGenerator(config).generate()
        generation_seconds = time.perf_counter() - start

        assert_loader_bit_identity(config, shard_dir, merged, epochs=min(epochs, 2))

        train_set, test_set = split_dataset(merged, train_fraction=0.75, rng=0)
        train_ids = set(train_set.design_id_array().tolist())
        loader = ShardDataLoader.from_directory(
            shard_dir, fidelities=config.fidelities, cache_shards=4, prefetch=1
        ).restrict(design_ids=train_ids)

        rows = []
        cells = {}
        for model_name in models:
            for curriculum_name in curricula:
                model, model_kwargs = build_zoo_model(model_name, quick)
                trainer = Trainer(
                    model,
                    data=loader,
                    test_set=test_set,
                    epochs=epochs,
                    batch_size=batch_size,
                    learning_rate=3e-3,
                    seed=0,
                    curriculum=make_trainer_curriculum(curriculum_name),
                )
                start = time.perf_counter()
                history = trainer.train()
                train_seconds = time.perf_counter() - start
                metrics = evaluation_protocol(
                    model,
                    train_set,
                    test_set,
                    num_gradient_samples=samples,
                    num_transmission_samples=samples,
                    rng=0,
                )
                losses = history.curve("train_loss")
                n_l2_curve = history.curve("train_n_l2")
                cell = {
                    "model": model_name,
                    "curriculum": curriculum_name,
                    "model_kwargs": dict(model_kwargs),
                    "epochs": epochs,
                    "train_seconds": round(train_seconds, 3),
                    "samples_per_second": round(
                        epochs * len(loader) / max(train_seconds, 1e-9), 2
                    ),
                    "first_train_loss": float(losses[0]),
                    "final_train_loss": float(losses[-1]),
                    "first_train_n_l2": float(n_l2_curve[0]),
                    "final_train_n_l2": float(n_l2_curve[-1]),
                    **{k: float(v) for k, v in metrics.items()},
                }
                cells[(model_name, curriculum_name)] = (model, cell)
                rows.append(cell)
                if quick:
                    # train_loss is not comparable across curriculum stages
                    # (stages weight fidelities differently); the unweighted
                    # per-epoch train N-L2 is.
                    assert cell["final_train_n_l2"] <= cell["first_train_n_l2"], (
                        f"{model_name}/{curriculum_name}: train N-L2 did not improve"
                    )
                    assert all(
                        np.isfinite(v) for k, v in cell.items() if isinstance(v, float)
                    ), f"{model_name}/{curriculum_name}: non-finite metric"

        # Promote the best test-error cell and serve it by name.
        best_key = min(cells, key=lambda key: cells[key][1]["test_n_l2"])
        best_model, best_cell = cells[best_key]
        checkpoint_path = Path(shard_dir) / "best_surrogate.npz"
        save_checkpoint(
            checkpoint_path,
            best_model,
            CheckpointMeta(
                model_name=best_key[0],
                # The exact kwargs the trained model was built with, captured
                # at construction — never re-derived, so the checkpoint's
                # architecture description cannot drift from the weights.
                model_kwargs=best_cell["model_kwargs"],
                field_scale=merged.field_scale,
                dataset_fingerprint=dataset_fingerprint(loader),
                extras={"curriculum": best_key[1]},
            ),
        )
        engine_name = f"neural:{checkpoint_path}"

        device = make_device(config.device_name, **(config.device_kwargs or {}))
        density = np.full(device.design_shape, 0.5)
        served = device.simulation(density, engine=engine_name).solve_multi([("in", 0)])[0]
        exact = device.simulation(density).solve_multi([("in", 0)])[0]
        assert np.isfinite(served.ez).all(), "promoted engine produced non-finite fields"

        start = time.perf_counter()
        neural_config = GeneratorConfig(
            device_name=config.device_name,
            strategy="random",
            num_designs=2,
            fidelities=("low",),
            with_gradient=False,
            seed=1,
            device_kwargs=config.device_kwargs,
            engine=engine_name,
        )
        neural_dataset = DatasetGenerator(neural_config).generate()
        neural_generation_seconds = time.perf_counter() - start
        assert len(neural_dataset) == 2
        assert np.isfinite(neural_dataset.target_array()).all()

        promotion = {
            "model": best_key[0],
            "curriculum": best_key[1],
            "test_n_l2": best_cell["test_n_l2"],
            "served_transmission": float(sum(served.transmissions.values())),
            "exact_transmission": float(sum(exact.transmissions.values())),
            "neural_generation_seconds": round(neural_generation_seconds, 3),
        }

    header = [
        "model", "curriculum", "train s", "final loss", "test N-L2",
        "trans MAE", "grad sim",
    ]
    table = [
        [
            row["model"], row["curriculum"], f"{row['train_seconds']:.1f}",
            f"{row['final_train_loss']:.4f}", f"{row['test_n_l2']:.4f}",
            f"{row['test_transmission_mae']:.4f}", f"{row['grad_similarity']:.3f}",
        ]
        for row in rows
    ]
    print_table("Model zoo x curricula (streaming multi-fidelity training)", header, table)
    print(
        f"promoted {promotion['model']}/{promotion['curriculum']} -> neural engine: "
        f"served T={promotion['served_transmission']:.4f} "
        f"vs exact T={promotion['exact_transmission']:.4f}"
    )

    return {
        "quick": quick,
        "generation_seconds": round(generation_seconds, 3),
        "num_samples": len(merged),
        "fidelities": list(config.fidelities),
        "engines": {"low": "direct", "high": "direct"},
        "matrix": rows,
        "promotion": promotion,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke gate: tiny matrix plus pipeline-contract assertions",
    )
    args = parser.parse_args(argv)
    record = run(quick=args.quick)
    path = write_bench_record("training_quick" if args.quick else "training", record)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
