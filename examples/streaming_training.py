"""The full generate→train→serve loop: shards → curriculum → neural engine.

Run with::

    python examples/streaming_training.py

1. Generate a paired multi-fidelity dataset through the sharded generator,
   persisting resumable shard artifacts (re-running the script reuses them).
2. Stream the shards into training with :class:`ShardDataLoader` — bounded
   memory and loss curves bit-identical to in-memory training for the same
   seed.
3. Train an FNO under a low→high warmup curriculum with high-fidelity labels
   weighted double.
4. Promote the trained model to a checkpoint and serve it by *name*:
   ``engine="neural:<checkpoint.npz>"`` works anywhere an engine is accepted —
   ``Simulation``, ``DatasetGenerator`` (including ``workers=`` runs, where
   live engine instances cannot travel), ``InverseDesignProblem``.

Set ``REPRO_EXAMPLES_QUICK=1`` for a seconds-scale smoke run (used by CI).
"""

import os
from pathlib import Path

import numpy as np

from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.data.loader import ShardDataLoader
from repro.devices.factory import make_device
from repro.surrogate import CheckpointMeta, dataset_fingerprint, save_checkpoint
from repro.train import Trainer, make_curriculum, make_model

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") not in ("", "0")
SHARD_DIR = Path("streaming_shards_quick" if QUICK else "streaming_shards")
CHECKPOINT = Path("bend_surrogate.npz")
# The two fidelity tiers are the MAPS discretizations (low = 0.1 um and
# high = 0.05 um cells), both labelled by the exact solver.
DEVICE_KWARGS = (
    dict(domain=3.0, design_size=1.4)
    if QUICK
    else dict(domain=3.5, design_size=1.8)
)


def main() -> None:
    # 1. Sharded multi-fidelity generation (resumable: rerunning the script
    #    loads finished shards instead of re-simulating them).
    config = GeneratorConfig(
        device_name="bending",
        strategy="random",
        num_designs=4 if QUICK else 12,
        fidelities=("low", "high"),
        with_gradient=False,
        seed=0,
        device_kwargs=DEVICE_KWARGS,
        engine="direct",
        shard_size=2,
        shard_dir=str(SHARD_DIR),
    )
    dataset = DatasetGenerator(config).generate()
    print(f"generated {len(dataset)} samples into {SHARD_DIR}/")

    # 2. Stream the artifacts: at most three decoded shards in memory.
    loader = ShardDataLoader.from_directory(
        SHARD_DIR, fidelities=config.fidelities, cache_shards=3
    )
    train_loader, test_loader = loader.split(train_fraction=0.75, rng=0)

    # 3. Warmup curriculum: the coarse tier first, then everything with the
    #    fine tier's labels weighted double.
    curriculum = make_curriculum(
        "warmup", fidelities=config.fidelities, loss_weights={"high": 2.0}
    )
    if QUICK:
        model_kwargs = dict(width=8, modes=(3, 3), depth=2, rng=0)
    else:
        model_kwargs = dict(width=16, modes=(6, 6), depth=3, rng=0)
    model = make_model("fno", **model_kwargs)
    trainer = Trainer(
        model,
        data=train_loader,
        test_set=test_loader,
        epochs=4 if QUICK else 20,
        batch_size=6,
        learning_rate=3e-3,
        seed=0,
        curriculum=curriculum,
    )
    history = trainer.train(verbose=True)
    print(f"final test N-L2: {history.final().get('test_n_l2', float('nan')):.4f}")

    # 4. Promote: weights + normalization statistics + data provenance in one
    #    portable file, servable by name.
    save_checkpoint(
        CHECKPOINT,
        model,
        CheckpointMeta(
            model_name="fno",
            model_kwargs=model_kwargs,
            field_scale=loader.field_scale,
            dataset_fingerprint=dataset_fingerprint(train_loader),
            extras={"curriculum": curriculum.describe()},
        ),
    )
    engine_name = f"neural:{CHECKPOINT}"
    device = make_device("bending", **DEVICE_KWARGS)
    density = np.full(device.design_shape, 0.5)
    served = device.simulation(density, engine=engine_name).solve("in")
    exact = device.simulation(density).solve("in")
    print(
        f"served as {engine_name}: T(neural)={served.total_transmission():.4f} "
        f"vs T(direct)={exact.total_transmission():.4f}"
    )
    print(
        "(demo scale: a dozen designs and a few epochs exercise the plumbing; "
        "surrogate accuracy needs paper-scale data/epochs — see "
        "benchmarks/bench_training.py)"
    )


if __name__ == "__main__":
    main()
