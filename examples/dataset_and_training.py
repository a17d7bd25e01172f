"""MAPS-Data + MAPS-Train: generate a multi-fidelity dataset and train a surrogate.

Run with::

    python examples/dataset_and_training.py

The script compares the random and the perturbed optimization-trajectory
sampling strategies on the waveguide-bend device, trains an FNO surrogate on
the better dataset and reports the standardized evaluation metrics (normalized
L2 field error and adjoint-gradient similarity).

Generation is sharded: ``workers=`` fans designs out across processes (the
result is bit-identical to the serial path for the same seed), ``shard_dir=``
persists resumable artifacts (``resume=True`` reuses finished shards on
rerun), and ``engine=`` selects the solver fidelity tier end-to-end — a
registry name, a promoted surrogate ``"neural:<checkpoint.npz>"``, or a
per-fidelity mapping such as ``{"low": "neural:<checkpoint.npz>", "*": "direct"}``.
The same knobs are available on the command line via
``python -m repro.data.generator``.

Set ``REPRO_EXAMPLES_QUICK=1`` for a seconds-scale smoke run (used by CI).
"""

import os

from repro.data.analysis import distribution_balance, transmission_histogram
from repro.data.dataset import split_dataset
from repro.data.generator import generate_dataset
from repro.train.evaluation import evaluate_model
from repro.train.models import make_model
from repro.train.trainer import Trainer

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") not in ("", "0")
DEVICE_KWARGS = (
    dict(domain=3.0, design_size=1.4, dl=0.1) if QUICK else dict(domain=3.5, design_size=1.8)
)


def histogram_row(dataset, bins=10) -> str:
    fractions, _ = transmission_histogram(dataset, bins=bins)
    return " ".join(f"{f:4.2f}" for f in fractions)


def main() -> None:
    # 1. Generate two datasets with different sampling strategies.  Labelling
    #    shards fan out over worker processes (workers=0 would use every
    #    core), and the solver tier is picked per run with engine=; both are
    #    throughput/fidelity knobs that never change the labels.
    datasets = {}
    for strategy in ("random", "perturbed_opt_traj"):
        datasets[strategy] = generate_dataset(
            "bending",
            strategy,
            num_designs=4 if QUICK else 16,
            seed=0,
            with_gradient=False,
            strategy_kwargs=dict(iterations=4 if QUICK else 10) if strategy != "random" else None,
            device_kwargs=DEVICE_KWARGS,
            # or "neural:<checkpoint.npz>", or a per-fidelity mapping like
            # {"low": "neural:<checkpoint.npz>", "*": "direct"}
            engine="direct",
            workers=2,
        )
        print(f"{strategy:20s} FoM histogram: {histogram_row(datasets[strategy])}"
              f"   balance={distribution_balance(datasets[strategy]):.2f}")

    # 2. Train an FNO surrogate on the perturbed-trajectory dataset.
    dataset = datasets["perturbed_opt_traj"]
    dataset.save("bend_dataset.npz")
    train, test = split_dataset(dataset, train_fraction=0.75, rng=0)
    if QUICK:
        model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
    else:
        model = make_model("fno", width=16, modes=(6, 6), depth=3, rng=0)
    trainer = Trainer(
        model, train, test, epochs=2 if QUICK else 15, batch_size=6,
        learning_rate=3e-3, seed=0,
    )
    trainer.train(verbose=True)

    # 3. Standardized evaluation: field error + gradient similarity.
    metrics = evaluate_model(
        model, train, test, num_gradient_samples=1 if QUICK else 3, rng=0
    )
    print("\nstandardized metrics:")
    for key, value in metrics.items():
        print(f"  {key:16s} {value:.4f}")

    model.save("bend_fno.npz")
    print("saved dataset to bend_dataset.npz and model to bend_fno.npz")


if __name__ == "__main__":
    main()
