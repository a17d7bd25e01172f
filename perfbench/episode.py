"""One episode of one workload, in a fresh process.

Run by ``run.py``, never imported::

    python3 perfbench/episode.py --workload label --seed 7 --trace 0 \
        --scratch <dir> --spawned-at <time.monotonic() of the parent>

A fresh process per episode starts every process-wide cache cold
(factorizations, operator templates, normalizations, port modes and solve
results), as in a user's fresh process, so no episode warms another.  The last
line of standard output is one JSON object describing the episode.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def _counters(workload, state) -> dict:
    from repro.fdfd.engine import default_factorization_cache
    from repro.fdfd.simulation import result_cache_stats

    return {
        "cache": default_factorization_cache.stats.as_dict(),
        "result_cache": result_cache_stats(),
        "recycle": workload.stats(state),
    }


def _difference(after: dict, before: dict) -> dict:
    return {
        group: {key: value - before[group].get(key, 0) for key, value in values.items()}
        for group, values in after.items()
    }


def _library_versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    import layers
    from layertrace import Patcher, Tracer, restored
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    state = workload.setup(args.seed, args.scratch)
    tracer = Tracer() if args.trace else None
    patcher = Patcher()
    if tracer is not None:
        layers.install(patcher, tracer, workload.entry_point, workload.model_classes(state))
    before = _counters(workload, state)
    clock = time.perf_counter
    units_ms: list[float] = []
    last = [0.0]

    def mark(since: float | None = None) -> None:
        """A unit ends now; it began at ``since`` or at the previous boundary."""
        now = clock()
        units_ms.append(1e3 * (now - (last[0] if since is None else since)))
        last[0] = now

    # Setup ends here: the parent's spawn stamp and this one share the
    # system-wide monotonic clock.
    setup_s = time.monotonic() - args.spawned_at
    start = last[0] = clock()
    try:
        outcome = workload.run(state, mark, patcher)
        timed_s = clock() - start
    finally:
        saved = patcher.snapshot()
        patcher.restore()
    counters = _difference(_counters(workload, state), before)
    attempted, failed, work = workload.check(state, outcome)
    record = {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "units_ms": units_ms,
        "attempted": attempted,
        "failed": failed,
        "work": work,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "restored": restored(saved),
        "libraries": _library_versions(),
    }
    if tracer is not None:
        record["open_spans"] = tracer.open_spans()
        record["layers"] = layers.episode_layer_values(tracer, counters)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
