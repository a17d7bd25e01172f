"""Fault-tolerance of the task fabric: injected failures vs. wasted work.

The benchmark drives :class:`repro.data.generator.DatasetGenerator` through
the deterministic fault harness (:mod:`repro.utils.faults`) and measures what
each injected failure actually costs:

* ``worker-death`` — SIGKILL the worker running the first shard.  The
  per-slot pool design means the crash takes down only that worker's
  in-flight task, so at most **one** shard of compute is re-done and the
  dataset is bit-identical to the fault-free run.
* ``task-timeout`` — delay the first shard far past its deadline.  The
  executor SIGKILLs the stuck worker at the deadline and retries; wall clock
  stays near the fault-free run instead of waiting out the stall.
* ``corrupt-shard`` — truncate a shard artifact right after its atomic
  rename (a torn write that raced through).  The generator quarantines the
  corpse to ``*.bad`` and recomputes exactly that shard in-process.
* ``permanent-failure`` — a task that fails every attempt surfaces in the
  :class:`~repro.utils.executor.TaskReport` without aborting its siblings
  (demonstrated on :func:`~repro.utils.executor.execute_tasks` directly).

Run with::

    PYTHONPATH=src python benchmarks/bench_faults.py            # full
    PYTHONPATH=src python benchmarks/bench_faults.py --quick    # CI smoke

The full run writes ``BENCH_faults.json``, the smoke run
``BENCH_faults_quick.json``.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from common import print_table, write_bench_record
from repro.data.dataset import datasets_bit_identical
from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.fdfd.engine import default_factorization_cache
from repro.utils import faults
from repro.utils.executor import ExecutorConfig, cpu_count, execute_tasks

# Shards must be cheap (the subject here is the recovery machinery, not the
# solves) but numerous enough that one fault leaves siblings in flight.
DEVICE_KWARGS = dict(domain=3.0, design_size=1.4, dl=0.1)


def _generate(root: Path, label: str, num_designs: int, plan=None, task_timeout=None):
    """One generation run under ``plan``; returns (dataset, generator, seconds)."""
    default_factorization_cache.clear()
    config = GeneratorConfig(
        device_name="bending",
        strategy="random",
        num_designs=num_designs,
        with_gradient=False,
        seed=3,
        device_kwargs=DEVICE_KWARGS,
        shard_size=2,
        fidelities=("low",),
        shard_dir=str(root / label),
        task_timeout=task_timeout,
        max_retries=2,
        retry_backoff=0.1,
    )
    generator = DatasetGenerator(config)
    start = time.perf_counter()
    if plan is None:
        dataset = generator.generate(workers=2)
    else:
        with faults.active_plan(plan):
            dataset = generator.generate(workers=2)
    return dataset, generator, time.perf_counter() - start


def _flaky_square(task):
    index, value, poison = task
    if index == poison:
        raise RuntimeError(f"permanent failure injected into task {index}")
    return value * value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--num-designs", type=int, default=None)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: smallest faulty run"
    )
    args = parser.parse_args()
    num_designs = args.num_designs or (4 if args.quick else 8)

    results = []
    with tempfile.TemporaryDirectory(prefix="bench-faults-") as tmp:
        root = Path(tmp)

        baseline, _, baseline_seconds = _generate(root, "baseline", num_designs)
        results.append(
            {
                "scenario": "baseline",
                "seconds": baseline_seconds,
                "bit_identical": True,
                "faults_injected": 0,
                "wasted_shards": 0,
                "detail": "fault-free reference run",
            }
        )

        dataset, generator, seconds = _generate(
            root,
            "worker-death",
            num_designs,
            plan=faults.FaultPlan(kill_task=0, scratch=str(root / "scratch-kill")),
        )
        report = generator.last_task_report
        results.append(
            {
                "scenario": "worker-death",
                "seconds": seconds,
                "bit_identical": datasets_bit_identical(baseline, dataset),
                "faults_injected": 1,
                "wasted_shards": report.wasted_executions() + generator.last_shard_recoveries,
                "detail": (
                    f"crashes={report.worker_crashes} respawns={report.respawns} "
                    f"serial_fallback={report.serial_fallback}"
                ),
            }
        )

        dataset, generator, seconds = _generate(
            root,
            "task-timeout",
            num_designs,
            plan=faults.FaultPlan(
                kill_task=None,
                delay_task=0,
                delay_seconds=30.0,
                scratch=str(root / "scratch-delay"),
            ),
            task_timeout=1.5,
        )
        report = generator.last_task_report
        results.append(
            {
                "scenario": "task-timeout",
                "seconds": seconds,
                "bit_identical": datasets_bit_identical(baseline, dataset),
                "faults_injected": 1,
                "wasted_shards": report.wasted_executions() + generator.last_shard_recoveries,
                "detail": f"timeouts={report.timeouts} (30s stall cut at the 1.5s deadline)",
            }
        )

        dataset, generator, seconds = _generate(
            root,
            "corrupt-shard",
            num_designs,
            plan=faults.FaultPlan(
                truncate_shard=1, scratch=str(root / "scratch-truncate")
            ),
        )
        report = generator.last_task_report
        quarantined = len(list((root / "corrupt-shard").glob("*.bad*")))
        results.append(
            {
                "scenario": "corrupt-shard",
                "seconds": seconds,
                "bit_identical": datasets_bit_identical(baseline, dataset),
                "faults_injected": 1,
                "wasted_shards": report.wasted_executions() + generator.last_shard_recoveries,
                "detail": (
                    f"quarantined={quarantined} "
                    f"in_process_recoveries={generator.last_shard_recoveries}"
                ),
            }
        )

    # Permanent failure: exhausts retries, lands in the TaskReport, and the
    # sibling tasks still complete — the run is never aborted wholesale.
    tasks = [(i, i, 1) for i in range(6)]
    start = time.perf_counter()
    report = execute_tasks(
        _flaky_square,
        tasks,
        workers=2,
        config=ExecutorConfig(max_retries=1, backoff=0.05),
    )
    seconds = time.perf_counter() - start
    siblings_ok = all(report.results[i] == i * i for i in range(6) if i != 1)
    failure = report.failures[0] if report.failures else None
    results.append(
        {
            "scenario": "permanent-failure",
            "seconds": seconds,
            "bit_identical": siblings_ok,
            "faults_injected": 1,
            "wasted_shards": 0,
            "detail": (
                f"failures={len(report.failures)} "
                f"kind={failure.kind if failure else '-'} "
                f"attempts={failure.attempts if failure else 0} siblings_ok={siblings_ok}"
            ),
        }
    )

    print_table(
        "Fault tolerance: injected failures vs wasted work",
        ["scenario", "seconds", "bit-identical", "faults", "wasted shards", "detail"],
        [
            [
                entry["scenario"],
                f"{entry['seconds']:.2f}",
                entry["bit_identical"],
                entry["faults_injected"],
                entry["wasted_shards"],
                entry["detail"],
            ]
            for entry in results
        ],
    )

    all_identical = all(e["bit_identical"] for e in results)
    waste_bounded = all(
        e["wasted_shards"] <= e["faults_injected"] for e in results
    )
    record = {
        "device": "bending",
        "device_kwargs": DEVICE_KWARGS,
        "num_designs": num_designs,
        "shard_size": 2,
        "cpu_count": cpu_count(),
        "quick": bool(args.quick),
        "scenarios": results,
        "all_bit_identical": all_identical,
        "waste_bounded_by_fault_count": waste_bounded,
        "permanent_failure_isolated": siblings_ok and failure is not None,
    }
    # A smoke run writes its own record, so the full BENCH_faults.json is never clobbered.
    path = write_bench_record("faults_quick" if args.quick else "faults", record)
    print(f"wrote {path}")
    if not all_identical:
        raise SystemExit("FAIL: a faulty run diverged from the fault-free dataset")
    if not waste_bounded:
        raise SystemExit("FAIL: recovery re-did more than one shard per injected fault")
    if not record["permanent_failure_isolated"]:
        raise SystemExit("FAIL: a permanent failure aborted or corrupted its siblings")


if __name__ == "__main__":
    main()
