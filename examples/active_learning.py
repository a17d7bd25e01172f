"""Closed-loop active learning: let the surrogate choose its own labels.

Run with::

    python examples/active_learning.py

The loop alternates train → evaluate → acquire → regenerate: each round the
current surrogate is promoted to a checkpoint-backed ``neural:<checkpoint.npz>``
engine, a pool of candidate designs is scored by how much the surrogate
disagrees with the exact ``direct`` tier, and only the top-k designs are
labelled at the exact tier (``workers=``/``resume`` work here like in any
generation run — the seed shards are reused on rerun).  New shards append to
the same directory; ``ShardDataLoader.refresh()`` folds them in without
touching existing samples, and the acquisition scores ride along as
per-sample loss weights.

``benchmarks/bench_active.py`` measures the payoff against random
acquisition; this script just walks the loop at demo scale.

Set ``REPRO_EXAMPLES_QUICK=1`` for a seconds-scale smoke run (used by CI).
"""

import os

from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.train import ActiveLearningConfig, ActiveLearningLoop, make_model

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") not in ("", "0")
SHARD_DIR = "active_shards_quick" if QUICK else "active_shards"
DEVICE_KWARGS = dict(domain=3.0, design_size=1.4, dl=0.1)
STRATEGY_KWARGS = dict(iterations=3 if QUICK else 8)
MODEL_KWARGS = (
    dict(width=8, modes=(3, 3), depth=2, rng=0)
    if QUICK
    else dict(width=12, modes=(4, 4), depth=2, rng=0)
)


def main() -> None:
    # A fixed exact-labelled hold-out the loop is judged on (never trained on).
    val_set = DatasetGenerator(
        GeneratorConfig(
            device_name="bending",
            strategy="perturbed_opt_traj",
            num_designs=3 if QUICK else 8,
            fidelities=("high",),
            engine="direct",
            with_gradient=False,
            seed=1234,
            strategy_kwargs=STRATEGY_KWARGS,
            device_kwargs=DEVICE_KWARGS,
        )
    ).generate()

    loop = ActiveLearningLoop(
        model=make_model("ffno", **MODEL_KWARGS),
        model_name="ffno",
        model_kwargs=MODEL_KWARGS,
        # The seed run: a handful of exact labels in a growing shard_dir.
        generator_config=GeneratorConfig(
            device_name="bending",
            strategy="perturbed_opt_traj",
            num_designs=3 if QUICK else 6,
            fidelities=("high",),
            engine="direct",
            with_gradient=False,
            seed=0,
            strategy_kwargs=STRATEGY_KWARGS,
            device_kwargs=DEVICE_KWARGS,
            shard_size=3,
            shard_dir=SHARD_DIR,
        ),
        val_set=val_set,
        config=ActiveLearningConfig(
            rounds=2 if QUICK else 4,
            candidates_per_round=4 if QUICK else 16,
            acquire_per_round=2 if QUICK else 3,
            epochs_per_round=2 if QUICK else 12,
            acquisition="disagreement",
            seed=0,
        ),
        trainer_kwargs=dict(batch_size=4, learning_rate=3e-3),
    )
    records = loop.run()

    print(f"\n{'round':>5s} {'exact labels':>12s} {'val N-L2':>9s}  acquired (weight)")
    for record in records:
        acquired = ", ".join(
            f"#{i} ({w:.2f})"
            for i, w in zip(record.acquired_design_ids, record.sample_weights)
        )
        print(
            f"{record.round_index:5d} {record.exact_labels:12d} "
            f"{record.val_n_l2:9.4f}  {acquired or '-'}"
        )
    print(f"\nfinal servable engine: {loop.checkpoint}")
    print(f"shards in {SHARD_DIR}/ (rerunning resumes them)")


if __name__ == "__main__":
    main()
