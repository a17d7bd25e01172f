"""Active-learning label-budget benchmark: targeted vs random acquisition.

Two identical surrogates start from the same seed dataset and the same
weights; each round both may label the same *number* of new designs at the
exact tier — but the **active** arm scores a candidate pool by surrogate
disagreement against the physics tier (``cheap_engine``, exact ``direct``
by default) and labels only the top-k,
while the **random** arm labels an arbitrary k of the same pool.  The figure
of merit is the exact-solve budget each arm spends to reach the same test
N-L2: ``label_budget_ratio < 1`` means active acquisition reached the random
arm's final accuracy with proportionally fewer exact-tier labels.

Writes ``BENCH_active.json``.  ``--quick`` shrinks the run to a CI smoke gate
that *asserts* the loop's contracts instead of measuring savings:
pre-existing loader samples stay byte-identical across ``refresh()``,
acquired design ids are fresh and monotonic, acquisition weights ride into
the loader, the promoted checkpoint keeps serving, and both arms complete.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import print_table, write_bench_record

from repro.data.dataset import datasets_bit_identical
from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.data.loader import ShardDataLoader
from repro.train.active import ActiveLearningConfig, ActiveLearningLoop
from repro.train.models import make_model

# The learning problem: field surrogates on perturbed optimization-trajectory
# designs (the distribution the paper's sampling study favours, and one the
# models demonstrably learn at benchmark scale).  The candidate pool mixes a
# stratified trajectory sweep with perturbed copies of high-FoM iterates, so
# it contains genuine redundancy for random acquisition to waste labels on.
DEVICE_KWARGS = dict(domain=3.0, design_size=1.4, dl=0.1)
STRATEGY_KWARGS = dict(iterations=10)
QUICK_STRATEGY_KWARGS = dict(iterations=4)
MODEL_KWARGS = dict(width=12, modes=(4, 4), depth=2, rng=0)
QUICK_MODEL_KWARGS = dict(width=8, modes=(3, 3), depth=2, rng=0)


def seed_config(shard_dir: str, quick: bool) -> GeneratorConfig:
    return GeneratorConfig(
        device_name="bending",
        strategy="perturbed_opt_traj",
        num_designs=3 if quick else 6,
        fidelities=("high",),
        engine="direct",
        with_gradient=False,
        seed=0,
        strategy_kwargs=QUICK_STRATEGY_KWARGS if quick else STRATEGY_KWARGS,
        device_kwargs=DEVICE_KWARGS,
        shard_size=3,
        shard_dir=shard_dir,
    )


def loop_config(acquisition: str, quick: bool) -> ActiveLearningConfig:
    if quick:
        return ActiveLearningConfig(
            rounds=2,
            candidates_per_round=4,
            acquire_per_round=2,
            epochs_per_round=2,
            acquisition=acquisition,
            seed=0,
        )
    return ActiveLearningConfig(
        rounds=8,
        candidates_per_round=30,
        acquire_per_round=3,
        epochs_per_round=20,
        acquisition=acquisition,
        seed=0,
    )


def run_arm(acquisition: str, shard_dir: str, val_set, quick: bool):
    """One acquisition strategy, from an identical starting point."""
    model_kwargs = QUICK_MODEL_KWARGS if quick else MODEL_KWARGS
    loop = ActiveLearningLoop(
        model=make_model("ffno", **model_kwargs),
        model_name="ffno",
        model_kwargs=model_kwargs,
        generator_config=seed_config(shard_dir, quick),
        val_set=val_set,
        config=loop_config(acquisition, quick),
        trainer_kwargs=dict(batch_size=4, learning_rate=3e-3),
    )
    start = time.perf_counter()
    records = loop.run()
    seconds = time.perf_counter() - start
    return loop, records, seconds


def budget_to_reach(records, target: float) -> int | None:
    """Exact labels the arm had spent when it first matched ``target``."""
    for record in records:
        if record.val_n_l2 <= target:
            return record.exact_labels
    return None


def records_json(records) -> list[dict]:
    return [
        {
            "round": r.round_index,
            "exact_labels": r.exact_labels,
            "num_samples": r.num_samples,
            "val_n_l2": round(r.val_n_l2, 6),
            "acquired": list(r.acquired_design_ids),
            "weights": [round(w, 4) for w in r.sample_weights],
            "cheap_solves": r.cheap_solves,
        }
        for r in records
    ]


def assert_quick_contracts(loop, records, shard_dir: str) -> None:
    """The CI gate: the loop's structural contracts, asserted end to end."""
    # Growth actually happened, with fresh monotonically increasing ids.
    seen: set[int] = set()
    for record in records[:-1]:
        assert record.acquired_design_ids, "acquisition round labelled nothing"
        for design_id in record.acquired_design_ids:
            assert design_id not in seen, "acquired design id re-used"
            seen.add(design_id)
    assert records[-1].exact_labels > records[0].exact_labels, (
        "exact-label budget did not grow across rounds"
    )
    assert all(np.isfinite(r.val_n_l2) for r in records), "non-finite validation error"

    # Acquisition weights rode through shard metadata into the loader.
    weights = loop.loader.sample_weight_array()
    assert weights.min() >= 1.0, "acquisition weights must be >= 1"

    # refresh() contract: a fresh loader over the grown directory sees the
    # same samples, and the grown loader's pre-existing prefix is
    # byte-identical to a fresh read restricted to the same design ids.
    fresh = ShardDataLoader.from_directory(
        shard_dir, fidelities=loop.generator_config.fidelities
    )
    assert len(fresh) == len(loop.loader), "refresh missed or duplicated samples"
    grown = loop.loader.materialize()
    assert datasets_bit_identical(
        grown,
        ShardDataLoader(
            loop.loader._paths,
            fidelities=loop.generator_config.fidelities,
            field_scale=loop.loader.field_scale,
        ).materialize(),
    ), "refreshed loader diverged from a fresh loader over the same shards"

    # The promoted checkpoint still serves as engine="neural:<ckpt>".
    checkpoint = Path(shard_dir) / loop.config.checkpoint_name
    assert checkpoint.is_file(), "promotion wrote no checkpoint"
    served = DatasetGenerator(
        GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=1,
            fidelities=("low",),
            engine=f"neural:{checkpoint}",
            with_gradient=False,
            seed=5,
            device_kwargs=DEVICE_KWARGS,
        )
    ).generate()
    assert np.isfinite(served.target_array()).all(), "promoted engine not servable"


def run(quick: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench_active_") as tmp:
        val_set = DatasetGenerator(
            GeneratorConfig(
                device_name="bending",
                strategy="perturbed_opt_traj",
                num_designs=4 if quick else 10,
                fidelities=("high",),
                engine="direct",
                with_gradient=False,
                seed=424_242,
                strategy_kwargs=QUICK_STRATEGY_KWARGS if quick else STRATEGY_KWARGS,
                device_kwargs=DEVICE_KWARGS,
            )
        ).generate()

        active_dir = str(Path(tmp) / "active")
        random_dir = str(Path(tmp) / "random")
        active_loop, active_records, active_seconds = run_arm(
            "disagreement", active_dir, val_set, quick
        )
        random_loop, random_records, random_seconds = run_arm(
            "random", random_dir, val_set, quick
        )

        if quick:
            assert_quick_contracts(active_loop, active_records, active_dir)
            assert_quick_contracts(random_loop, random_records, random_dir)

        # Matched-accuracy budget: how many exact labels did each arm spend
        # to reach the random arm's final validation error?
        target = random_records[-1].val_n_l2
        active_budget = budget_to_reach(active_records, target)
        random_budget = random_records[-1].exact_labels
        ratio = (
            round(active_budget / random_budget, 4)
            if active_budget is not None
            else None
        )

        record = {
            "quick": quick,
            "device": "bending",
            "acquisition": "disagreement",
            "baseline": "random",
            "matched_val_n_l2": round(target, 6),
            "active_exact_labels_at_match": active_budget,
            "random_exact_labels": random_budget,
            "label_budget_ratio": ratio,
            "active_final_val_n_l2": round(active_records[-1].val_n_l2, 6),
            "random_final_val_n_l2": round(random_records[-1].val_n_l2, 6),
            "active_cheap_solves": int(sum(r.cheap_solves for r in active_records)),
            "active_seconds": round(active_seconds, 3),
            "random_seconds": round(random_seconds, 3),
            "active_rounds": records_json(active_records),
            "random_rounds": records_json(random_records),
        }

    header = ["round", "active labels", "active val N-L2", "random labels", "random val N-L2"]
    table = [
        [
            str(a.round_index),
            str(a.exact_labels),
            f"{a.val_n_l2:.4f}",
            str(b.exact_labels),
            f"{b.val_n_l2:.4f}",
        ]
        for a, b in zip(active_records, random_records)
    ]
    print_table("Active vs random acquisition (exact-tier label budget)", header, table)
    if ratio is not None:
        print(
            f"active reached the random arm's final val N-L2 ({target:.4f}) with "
            f"{active_budget}/{random_budget} exact labels "
            f"(label_budget_ratio={ratio})"
        )
    else:
        print(
            f"active did not reach the random arm's final val N-L2 "
            f"({target:.4f}) within its budget"
        )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke gate: two tiny rounds plus loop-contract assertions",
    )
    args = parser.parse_args(argv)
    record = run(quick=args.quick)
    path = write_bench_record("active_quick" if args.quick else "active", record)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
