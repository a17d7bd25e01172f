"""Sharded dataset-generation throughput: serial vs N worker processes.

The benchmark times the labelling stage of :class:`repro.data.generator.
DatasetGenerator` (design sampling is shared and excluded) for a fixed config
at several worker counts, verifies that every parallel run is bit-identical
to the serial run, and writes ``BENCH_generation.json`` (``--quick``:
``BENCH_generation_quick.json``).

Speedup is wall-clock and therefore bounded by the host's core count (recorded
in the output): on a >= 4-core machine the 4-worker run is expected to clear
~2x; on a single-core container it degrades gracefully to ~1x plus pool
overhead.

Run with::

    PYTHONPATH=src python benchmarks/bench_generation.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_generation.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import time

from common import BENCH, DEVICE_KWARGS, print_table, write_bench_record
from repro.data.dataset import datasets_bit_identical
from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.fdfd.engine import default_factorization_cache
from repro.utils.executor import cpu_count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        default="1,2,4",
        help="comma-separated worker counts to sweep (first should be 1)",
    )
    parser.add_argument("--num-designs", type=int, default=None)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: tiny run, 1 and 2 workers"
    )
    args = parser.parse_args()

    worker_counts = [int(w) for w in args.workers.split(",")]
    # Gradient labels plus a finer mesh keep per-design compute (~60 ms) well
    # above the per-design IPC payload (~5 ms), so fan-out overhead stays
    # negligible on a multi-core host.
    num_designs = args.num_designs or 2 * BENCH.num_designs
    with_gradient = True
    device_kwargs = dict(DEVICE_KWARGS, dl=0.05)
    if args.quick:
        worker_counts = [1, 2]
        num_designs = min(num_designs, 8)
        with_gradient = False
        device_kwargs = dict(DEVICE_KWARGS)
    if worker_counts[0] != 1:
        worker_counts.insert(0, 1)

    # Shard layout is fixed across the sweep (it never depends on workers),
    # sized so the largest worker count has at least 2 shards per worker.
    shard_size = max(1, num_designs // (2 * max(worker_counts)))
    config = GeneratorConfig(
        device_name="bending",
        strategy="random",
        num_designs=num_designs,
        with_gradient=with_gradient,
        seed=0,
        device_kwargs=device_kwargs,
        shard_size=shard_size,
    )
    generator = DatasetGenerator(config)
    designs = generator.sample_designs()

    results = []
    baseline = None
    baseline_time = None
    for workers in worker_counts:
        # Start every run from a cold factorization cache; forked workers
        # would otherwise inherit LUs warmed by the preceding run.
        default_factorization_cache.clear()
        start = time.perf_counter()
        dataset = generator.generate(designs, workers=workers)
        elapsed = time.perf_counter() - start
        if baseline is None:
            baseline, baseline_time = dataset, elapsed
        entry = {
            "workers": workers,
            "seconds": elapsed,
            "samples": len(dataset),
            "samples_per_second": len(dataset) / elapsed,
            "speedup_vs_serial": baseline_time / elapsed,
            "bit_identical_to_serial": datasets_bit_identical(baseline, dataset),
        }
        results.append(entry)

    rows = [
        [
            entry["workers"],
            f"{entry['seconds']:.2f}",
            f"{entry['samples_per_second']:.2f}",
            f"{entry['speedup_vs_serial']:.2f}x",
            entry["bit_identical_to_serial"],
        ]
        for entry in results
    ]
    print_table(
        "Sharded dataset generation throughput",
        ["workers", "seconds", "samples/s", "speedup", "bit-identical"],
        rows,
    )

    record = {
        "device": config.device_name,
        "device_kwargs": device_kwargs,
        "strategy": config.strategy,
        "num_designs": num_designs,
        "with_gradient": with_gradient,
        "shard_size": shard_size,
        "cpu_count": cpu_count(),
        "quick": bool(args.quick),
        "runs": results,
        "all_bit_identical": all(e["bit_identical_to_serial"] for e in results),
    }
    # A smoke run writes its own record, so the full BENCH_generation.json is never clobbered.
    path = write_bench_record("generation_quick" if args.quick else "generation", record)
    print(f"wrote {path}")
    if not record["all_bit_identical"]:
        raise SystemExit("FAIL: parallel generation diverged from the serial path")


if __name__ == "__main__":
    main()
