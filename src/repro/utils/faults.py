"""Deterministic fault injection for the task fabric.

This module is the single switchboard through which tests and benchmarks
inject failures into the generation / serving stack: kill the worker running
the Nth task, delay a task past its deadline, truncate a shard artifact just
after it was written, or raise from inside :class:`FileFactorizationStore`
I/O.

Design constraints, in order of importance:

* **Deterministic.** A :class:`FaultPlan` names exact task / shard indices and
  byte-exact actions; nothing is sampled at fire time. Two runs with the same
  plan inject the same faults at the same points.
* **Fires once.** Retried tasks and respawned workers re-execute the same code
  paths, so each injector claims a *marker* before firing. With a
  ``scratch`` directory configured the marker is a file created with
  ``O_EXCL`` — exactly-once across every process in the run, surviving worker
  respawns. Without a scratch dir markers are process-local (fine for
  single-process unit tests).
* **Invisible when disabled.** Every hook starts with a cheap
  ``plan is None`` check; production code paths pay one dict lookup on
  ``os.environ`` per call site.

The active plan travels to pool workers through the ``REPRO_FAULTS``
environment variable (a JSON blob), so it survives both fork and spawn start
methods without any pickling support from the executor.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

logger = logging.getLogger(__name__)

ENV_VAR = "REPRO_FAULTS"

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "active_plan",
    "clear_plan",
    "get_plan",
    "in_worker",
    "install_plan",
    "mark_worker",
    "on_shard_saved",
    "on_store_op",
    "on_task_start",
]


@dataclass(frozen=True)
class FaultPlan:
    """A declarative description of which faults to inject, and where.

    Indices refer to task submission order (``kill_task`` / ``delay_task``)
    or shard plan order (``truncate_shard``). ``None`` disables
    an injector. ``scratch`` names a directory used for cross-process
    fire-once markers; leave it unset only for single-process tests.
    """

    kill_task: int | None = None
    delay_task: int | None = None
    delay_seconds: float = 2.0
    truncate_shard: int | None = None
    store_errors: int = 0
    store_ops: tuple[str, ...] = ("load", "publish")
    scratch: str | None = None

    def to_json(self) -> str:
        payload = asdict(self)
        payload["store_ops"] = list(self.store_ops)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, raw: str) -> "FaultPlan":
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError(f"{ENV_VAR} must hold a JSON object, got {raw!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {sorted(unknown)}")
        if "store_ops" in payload:
            payload["store_ops"] = tuple(payload["store_ops"])
        return cls(**payload)


# --------------------------------------------------------------------------
# Plan resolution.  An explicitly installed plan wins; otherwise the
# environment variable is parsed (and cached against its raw value so workers
# and monkeypatching tests both see changes immediately).

_installed: FaultPlan | None = None
_env_raw: str | None = None
_env_plan: FaultPlan | None = None
_local_markers: set[str] = set()
_in_worker = False


def get_plan() -> FaultPlan | None:
    """Return the active plan, or ``None`` when fault injection is off."""
    if _installed is not None:
        return _installed
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    global _env_raw, _env_plan
    if raw != _env_raw:
        _env_plan = FaultPlan.from_json(raw)
        _env_raw = raw
    return _env_plan


def install_plan(plan: FaultPlan) -> None:
    """Activate ``plan`` in this process and export it to child processes."""
    global _installed
    _installed = plan
    os.environ[ENV_VAR] = plan.to_json()


def clear_plan() -> None:
    """Deactivate fault injection and reset process-local fire-once state."""
    global _installed, _env_raw, _env_plan
    _installed = None
    _env_raw = None
    _env_plan = None
    _local_markers.clear()
    os.environ.pop(ENV_VAR, None)


@contextmanager
def active_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: install ``plan``, restore the previous state on exit."""
    previous_env = os.environ.get(ENV_VAR)
    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()
        if previous_env is not None:
            os.environ[ENV_VAR] = previous_env


def mark_worker() -> None:
    """Record that this process is a pool worker (the kill injector only
    ever fires inside workers — never in the coordinating parent)."""
    global _in_worker
    _in_worker = True


def in_worker() -> bool:
    return _in_worker


def _claim(plan: FaultPlan, marker: str) -> bool:
    """Atomically claim a fire-once marker. True exactly once per marker."""
    if plan.scratch:
        root = Path(plan.scratch)
        try:
            root.mkdir(parents=True, exist_ok=True)
            with open(root / f"fault-{marker}", "x"):
                pass
            return True
        except FileExistsError:
            return False
        except OSError:
            logger.warning("fault marker %s unusable; falling back to process-local", marker)
    if marker in _local_markers:
        return False
    _local_markers.add(marker)
    return True


# --------------------------------------------------------------------------
# Hooks.  Call sites are: the executor's in-worker task wrapper
# (on_task_start), run_shard after save_shard (on_shard_saved), and
# FileFactorizationStore.load/publish (on_store_op).


def on_task_start(index: int) -> None:
    """Fire task-level injectors for task ``index`` (submission order).

    ``kill`` SIGKILLs the current process (workers only — a no-op in the
    coordinating parent, including the serial fallback), exercising the
    *lost-worker* path. ``delay`` sleeps inline, so a delay longer than the
    task's deadline exercises the *deadline* path.
    """
    plan = get_plan()
    if plan is None:
        return
    if plan.kill_task == index and in_worker() and _claim(plan, f"kill-{index}"):
        logger.warning("fault injection: killing worker pid=%d on task %d", os.getpid(), index)
        os.kill(os.getpid(), signal.SIGKILL)
    if plan.delay_task == index and _claim(plan, f"delay-{index}"):
        logger.warning(
            "fault injection: delaying task %d by %.3gs", index, plan.delay_seconds
        )
        time.sleep(plan.delay_seconds)


def on_shard_saved(spec_index: int, path: "os.PathLike[str] | str") -> None:
    """Truncate the artifact for shard ``spec_index`` to half its size —
    simulating a crash mid-write after the atomic rename raced through."""
    plan = get_plan()
    if plan is None or plan.truncate_shard != spec_index:
        return
    if not _claim(plan, f"truncate-{spec_index}"):
        return
    target = Path(path)
    try:
        size = target.stat().st_size
        with open(target, "r+b") as handle:
            handle.truncate(max(size // 2, 1))
        logger.warning(
            "fault injection: truncated shard artifact %s to %d bytes",
            target.name,
            max(size // 2, 1),
        )
    except OSError:
        logger.warning("fault injection: could not truncate %s", target)


def on_store_op(op: str) -> None:
    """Raise an injected ``OSError`` from factorization-store I/O.

    Fires at most ``plan.store_errors`` times per op named in
    ``plan.store_ops`` (exactly-once semantics per (op, k) marker pair).
    """
    plan = get_plan()
    if plan is None or plan.store_errors <= 0 or op not in plan.store_ops:
        return
    for k in range(plan.store_errors):
        if _claim(plan, f"store-{op}-{k}"):
            logger.warning("fault injection: raising from store op %r (%d)", op, k)
            raise OSError(f"injected fault: store {op} failure #{k}")
