"""Layer-attributed end-to-end benchmark of the MAPS reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload {label,invdes,robust,train} \
        --seed N --seconds S --trace {0,1}

A run is a sequence of episodes, each a fresh process that sets up one
workload instance from a seed derived from ``--seed`` and times it (see
``workloads.py``).  The episode count is ``--seconds`` divided by the
workload's nominal episode length, so a run always does the same work for the
same arguments.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced episodes on the same seeds and reports the
per-layer metrics.  The last line of standard output is the JSON result; the
line before it is a record with the host, the provenance and per-episode
details.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, combine_layer_values  # noqa: E402

#: Nominal timed seconds of one episode on a 2-CPU host; sets the episode
#: count, never the work inside an episode.
EPISODE_SECONDS = {"label": 4.0, "invdes": 3.0, "robust": 5.5, "train": 7.0}
#: A run that has not finished by then fails instead of hanging.
DEADLINE_S = 170
#: Episode environment.  One BLAS thread keeps times independent of how the
#: BLAS library schedules threads on a small host.  A fixed hash seed makes
#: set and dict order, and with it the allocation pattern and peak memory,
#: the same in every process.  Without NumPy's huge-page advice, peak memory
#: no longer depends on how many huge pages the host has free.
EPISODE_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
#: personality(2) flag that turns off address-space randomization for the
#: programs a process executes.  Where allocations land changed peak memory
#: by ~25 MB between otherwise identical episodes.
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """Run in the episode child before exec: no address randomization."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(ADDR_NO_RANDOMIZE)


def episode_seed(seed: int, index: int) -> int:
    """Distinct, reproducible seed of episode ``index`` of a run."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def episode_count(workload: str, seconds: int) -> int:
    return max(3, round(seconds / EPISODE_SECONDS[workload]))


def run_episode(workload: str, seed: int, trace: int, scratch: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(EPISODE_ENV)
    command = [
        sys.executable,
        str(HERE / "episode.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
        "--scratch", scratch,
        "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        preexec_fn=_fixed_layout,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"{workload} episode (seed {seed}) exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten values beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    percentile = math.floor(100 * (n - 10) / n)
    return ordered[max(0, math.ceil(percentile * n / 100) - 1)], percentile


def end_to_end(episodes: list[dict]) -> tuple[dict, dict]:
    units = [u for e in episodes for u in e["units_ms"]]
    tail_ms, percentile = tail(units)
    values = {
        "setup_s": (statistics.median(e["setup_s"] for e in episodes), "s"),
        "throughput": (statistics.median(e["work"] / e["timed_s"] for e in episodes), "1/s"),
        "unit_p50_ms": (statistics.median(units), "ms"),
        "unit_tail_ms": (tail_ms, "ms"),
        # Peak memory depends on the trajectory each seed takes; the mean
        # over episodes varies least between runs.
        "peak_rss_mb": (statistics.fmean(e["peak_rss_mb"] for e in episodes), "MB"),
    }
    details = {
        "units": len(units),
        "tail_percentile": percentile,
        "per_episode": [
            {
                "timed_s": e["timed_s"],
                "work": e["work"],
                "unit_p50_ms": statistics.median(e["units_ms"]),
                "setup_s": e["setup_s"],
                "peak_rss_mb": e["peak_rss_mb"],
            }
            for e in episodes
        ],
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}, details


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    values = combine_layer_values(
        [e["layers"] for e in traced],
        [e["timed_s"] for e in traced],
        [e["timed_s"] for e in untraced],
    )
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def provenance(seed: int, episodes: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        **episodes[0]["libraries"],
        "blas_threads": EPISODE_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EPISODE_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        parser.error(f"no program source under {ROOT / 'src'}; run from a full checkout")

    deadline = time.monotonic() + DEADLINE_S
    count = episode_count(args.workload, args.seconds)
    seeds = [episode_seed(args.seed, i) for i in range(count)]
    # Scratch space (shard directories) lives inside the checkout.
    scratch_root = ROOT / ".perfbench-scratch"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    untraced: list[dict] = []
    traced: list[dict] = []
    try:
        if args.trace:
            # Untraced and traced twins of the same seeds give the overhead;
            # half the episodes each keeps a traced run no longer than an
            # untraced one.
            for seed in seeds[: max(1, count // 2)]:
                untraced.append(run_episode(args.workload, seed, 0, scratch, deadline))
                traced.append(run_episode(args.workload, seed, 1, scratch, deadline))
        else:
            untraced = [run_episode(args.workload, seed, 0, scratch, deadline) for seed in seeds]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    episodes = untraced + traced
    correct = all(e["failed"] == 0 and e["restored"] for e in episodes) and all(
        e["open_spans"] == 0 for e in traced
    )
    if args.trace:
        metrics = per_layer(untraced, traced)
        details = {}
    else:
        metrics, details = end_to_end(untraced)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "episodes": len(episodes),
        "episode_seeds": seeds[: len(untraced)],
        **details,
        "host": provenance(args.seed, episodes),
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(e["attempted"] for e in episodes),
                "failed": sum(e["failed"] for e in episodes),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
