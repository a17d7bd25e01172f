"""Shared configuration and helpers for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper's evaluation
section.  The default ("fast") scale keeps the full suite runnable on a laptop
CPU in tens of minutes by shrinking datasets, model widths and epoch counts;
set ``REPRO_BENCH_SCALE=full`` to run closer to the paper's operating point
(hours of CPU time).  The *shape* of each result — which method wins and by
roughly what margin — is what the harness reproduces; absolute numbers depend
on the compute budget.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

from repro.data.dataset import PhotonicDataset, split_dataset
from repro.data.generator import generate_dataset
from repro.train.models import make_model
from repro.train.trainer import Trainer

SCALE = os.environ.get("REPRO_BENCH_SCALE", "fast").lower()

# Devices are shrunk slightly relative to the library defaults so one forward
# solve costs ~50 ms on a laptop core.
DEVICE_KWARGS = dict(domain=3.5, design_size=1.8)


@dataclass(frozen=True)
class BenchScale:
    """Knobs that trade benchmark runtime against fidelity to the paper."""

    num_designs: int
    opt_iterations: int
    epochs: int
    width: int
    modes: tuple[int, int]
    depth: int
    unet_width: int
    batch_size: int
    grad_samples: int


SCALES = {
    "fast": BenchScale(
        num_designs=16,
        opt_iterations=12,
        epochs=12,
        width=16,
        modes=(6, 6),
        depth=3,
        unet_width=12,
        batch_size=6,
        grad_samples=3,
    ),
    "full": BenchScale(
        num_designs=64,
        opt_iterations=40,
        epochs=60,
        width=32,
        modes=(10, 10),
        depth=4,
        unet_width=24,
        batch_size=8,
        grad_samples=8,
    ),
}

BENCH = SCALES.get(SCALE, SCALES["fast"])


def build_dataset(device_name: str, strategy: str, seed: int = 0, num_designs: int | None = None) -> PhotonicDataset:
    """Generate a labelled dataset for one device and sampling strategy."""
    strategy_kwargs = None
    if strategy in ("opt_traj", "perturbed_opt_traj"):
        strategy_kwargs = dict(iterations=BENCH.opt_iterations)
    return generate_dataset(
        device_name,
        strategy,
        num_designs=num_designs or BENCH.num_designs,
        seed=seed,
        with_gradient=False,
        strategy_kwargs=strategy_kwargs,
        device_kwargs=DEVICE_KWARGS,
    )


def build_model(name: str, rng: int = 0):
    """Instantiate a surrogate at the benchmark scale."""
    if name == "unet":
        return make_model("unet", base_width=BENCH.unet_width, rng=rng)
    if name == "blackbox":
        return make_model("blackbox", width=BENCH.unet_width, rng=rng)
    return make_model(name, width=BENCH.width, modes=BENCH.modes, depth=BENCH.depth, rng=rng)


def train_model(model, dataset: PhotonicDataset, target: str = "field", seed: int = 0):
    """Split, train and return ``(trainer, train_set, test_set)``."""
    train_set, test_set = split_dataset(dataset, train_fraction=0.75, rng=seed)
    trainer = Trainer(
        model,
        train_set,
        test_set,
        target=target,
        epochs=BENCH.epochs,
        batch_size=BENCH.batch_size,
        learning_rate=3e-3,
        seed=seed,
    )
    trainer.train()
    return trainer, train_set, test_set


def write_bench_record(name: str, record: dict) -> Path:
    """Write the standard ``BENCH_<name>.json`` record next to the benchmarks.

    The record is wrapped with the benchmark name, the scale it ran at and
    host/timestamp metadata so CI logs and local runs are comparable.
    """
    path = Path(__file__).parent / f"BENCH_{name}.json"
    payload = {
        "benchmark": name,
        "scale": SCALE,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "processor": platform.processor() or "unknown",
            "cpu_count": os.cpu_count(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "record": record,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def print_table(title: str, header: list[str], rows: list[list[str]]) -> None:
    """Print a paper-style table to stdout (captured in bench_output.txt)."""
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print()
