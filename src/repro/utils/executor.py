"""Fault-tolerant task fabric.

:func:`execute_tasks` runs ``fn`` over a list of idempotent tasks and adds
the robustness layer a plain ``ProcessPoolExecutor`` lacks:

* **Task-level crash recovery.** ``concurrent.futures`` breaks the *whole*
  pool when one worker dies — every in-flight future raises
  ``BrokenProcessPool`` and completed-but-unretrieved work is lost. Here each
  worker slot is its own single-worker pool, so a crashed worker invalidates
  exactly the one task it was running: that task is requeued onto a respawned
  slot and every other result is kept. One injected worker death costs at
  most one task of recomputation.
* **Per-task deadlines.** A task still running ``timeout`` seconds after
  dispatch has its worker SIGKILLed, which funnels into the same
  crash-recovery path. Slots share nothing — no queue, no lock — so a kill
  can only break the killed worker's own pool.
* **Bounded retries with exponential backoff + jitter.** Failed / timed-out /
  crashed tasks are retried up to ``max_retries`` times; the jitter is drawn
  from a seed derived from ``(seed, task index, attempt)`` so schedules are
  reproducible.
* **Structured reporting.** Permanently-failing tasks land in
  :class:`TaskReport.failures` instead of aborting their siblings; the report
  also carries per-task attempt counts so callers (and ``bench_faults``) can
  account for wasted recomputation.
* **Serial fallback that keeps finished work.** If pools cannot be spawned at
  all (or every slot exhausts its respawn budget), remaining tasks run
  inline in the coordinating process — already-completed results are *not*
  recomputed.

The CPU count available to this process (:func:`cpu_count`) and worker-count
resolution (:func:`effective_workers`) size the fan-out.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import random
import signal
import time
from collections import deque
from contextlib import contextmanager
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.utils import faults

__all__ = [
    "ExecutorConfig",
    "TaskFailure",
    "TaskReport",
    "TaskTimeoutError",
    "WorkerCrashError",
    "cpu_count",
    "effective_workers",
    "execute_tasks",
    "one_blas_thread",
]

_POLL_TICK = 0.05

#: Each retry waits ``BACKOFF_FACTOR`` times longer than the one before.
BACKOFF_FACTOR = 2.0
#: Retry delays are stretched by a deterministic factor in ``[1, 1 + JITTER]``.
JITTER = 0.25
#: A slot whose worker died this many times is retired; when every slot is
#: retired the remaining tasks run serially in the coordinating process.
MAX_WORKER_RESPAWNS = 3


class TaskTimeoutError(TimeoutError):
    """A task exceeded its deadline on every allowed attempt."""

    def __init__(self, index: int, timeout: float):
        super().__init__(f"task {index} exceeded its {timeout:.3g}s deadline")
        self.index = index
        self.timeout = timeout


class WorkerCrashError(RuntimeError):
    """A task's worker died on every allowed attempt."""

    def __init__(self, index: int, attempts: int):
        super().__init__(
            f"task {index} lost its worker on each of {attempts} attempt(s)"
        )
        self.index = index
        self.attempts = attempts


@dataclass(frozen=True)
class ExecutorConfig:
    """Retry / deadline policy for :func:`execute_tasks`.

    ``timeout`` is the per-task deadline in seconds, measured from dispatch to
    a worker slot. A fresh slot's deadline therefore also covers the fork and
    the worker's start-up (the BLAS pin, cheap). The serial path enforces no
    deadline (a process cannot SIGKILL itself safely). ``max_retries``
    bounds *re*-executions: a task runs at most ``1 + max_retries`` times. The
    retry delay for attempt ``a`` (1-based) is
    ``backoff * BACKOFF_FACTOR**(a-1)`` scaled by a deterministic jitter in
    ``[1, 1 + JITTER]`` seeded from ``(seed, index, a)``.
    """

    timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.25
    seed: int = 0

    def retry_delay(self, index: int, attempt: int) -> float:
        base = self.backoff * BACKOFF_FACTOR ** max(attempt - 1, 0)
        if base <= 0:
            return 0.0
        rng = random.Random(f"{self.seed}-{index}-{attempt}")
        return base * (1.0 + JITTER * rng.random())


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its retry budget."""

    index: int
    attempts: int
    error: BaseException
    kind: str  # "error" | "timeout" | "crash"

    def __str__(self) -> str:
        return (
            f"task {self.index} failed permanently after {self.attempts} "
            f"attempt(s) [{self.kind}]: {self.error!r}"
        )


@dataclass
class TaskReport:
    """Structured outcome of a run: ordered results plus failure accounting."""

    results: list[Any]
    failures: list[TaskFailure] = field(default_factory=list)
    attempts: dict[int, int] = field(default_factory=dict)
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    respawns: int = 0
    serial_fallback: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def wasted_executions(self) -> int:
        """Task executions beyond the one each task needs (the waste metric)."""
        return sum(max(count - 1, 0) for count in self.attempts.values())

    def raise_first(self) -> None:
        if self.failures:
            raise self.failures[0].error


def cpu_count() -> int:
    """Number of CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def effective_workers(workers: int | None, num_tasks: int | None = None) -> int:
    """Resolve a worker-count request.

    ``None`` or ``0`` means "all available cores"; the result is clamped to
    the number of tasks (spawning more processes than tasks is pure overhead).
    """
    if workers is None or workers == 0:
        workers = cpu_count()
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if num_tasks is not None:
        workers = min(workers, max(int(num_tasks), 1))
    return max(workers, 1)


# --------------------------------------------------------------------------
# Worker side.  Runs inside a slot's pool process and gives the fault harness
# its hook.


@functools.cache
def _openblas_thread_calls() -> tuple[tuple[Callable[[int], None], Callable[[], int]], ...]:
    """``(set_num_threads, get_num_threads)`` of each OpenBLAS this process has loaded.

    NumPy and SciPy each bundle one, under prefixed names such as
    ``scipy_openblas_set_num_threads64_``; they are found in ``/proc/self/maps``.
    Resolved once per process; a forked worker inherits the parent's handles,
    which stay valid there.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:  # no procfs: nothing to pin
        return ()
    paths = sorted(
        {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1]}
    )
    calls = []
    for path, name in itertools.product(paths, ("openblas", "scipy_openblas")):
        library = ctypes.CDLL(path)
        for suffix in ("", "64_"):
            setter = getattr(library, f"{name}_set_num_threads{suffix}", None)
            getter = getattr(library, f"{name}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                calls.append((setter, getter))
    return tuple(calls)


@contextmanager
def one_blas_thread():
    """Run the block at one thread in every loaded OpenBLAS, then restore each count.

    Tasks run at one BLAS thread, pooled or inline: forked workers of a
    multi-threaded OpenBLAS oversubscribed the cores (two ran ~9x slower
    than serial on 2 CPUs), and dense kernels round differently at other
    thread counts, while a task's result must not depend on where it ran.
    The libraries are looked up on the first call in a process, so an
    OpenBLAS loaded after that call is not pinned.  The count is
    process-global: other threads' dense kernels run at one thread too
    while the block runs.
    """
    calls = _openblas_thread_calls()
    saved = [get_num_threads() for _, get_num_threads in calls]
    for set_num_threads, _ in calls:
        set_num_threads(1)
    try:
        yield
    finally:
        for (set_num_threads, _), count in zip(calls, saved):
            set_num_threads(count)


def _worker_init():
    faults.mark_worker()
    for set_num_threads, _ in _openblas_thread_calls():
        set_num_threads(1)  # for the worker's life; see one_blas_thread


def _run_task(index, fn, task):
    faults.on_task_start(index)
    return fn(task)


class _Task:
    __slots__ = (
        "index",
        "payload",
        "status",  # "ready" | "running" | "done" | "failed"
        "result",
        "failure",
        "failures_count",
        "not_before",
        "future",
        "slot",
        "dispatched_at",
        "pending_kind",  # "timeout" once the parent kills the worker on purpose
    )

    def __init__(self, index, payload):
        self.index = index
        self.payload = payload
        self.status = "ready"
        self.result = None
        self.failure = None
        self.failures_count = 0
        self.not_before = 0.0
        self.future = None
        self.slot = None
        self.dispatched_at = 0.0
        self.pending_kind = None


class _Slot:
    __slots__ = ("pool", "respawns", "task_index", "dead")

    def __init__(self):
        self.pool = None
        self.respawns = 0
        self.task_index = None
        self.dead = False


class _PoolRun:
    """One :func:`execute_tasks` call over per-slot worker processes.

    ``workers`` slots each hold a one-worker ``ProcessPoolExecutor`` so a
    worker crash is scoped to its own in-flight task. ``workers <= 1`` (or a
    total failure to spawn pools) runs tasks inline in this process —
    deadlines are not enforced there, but retries and reporting behave
    identically.
    """

    def __init__(self, fn, tasks, workers, config):
        self.fn = fn
        self.config = config
        self.workers = max(int(workers), 1)
        self._tasks = [_Task(index, payload) for index, payload in enumerate(tasks)]
        self._ready: deque[int] = deque(range(len(self._tasks)))
        self._settled = 0
        self._slots = [_Slot() for _ in range(self.workers)] if self.workers > 1 else []
        self._serial = self.workers <= 1
        self._attempts: dict[int, int] = {}
        self.retries = 0
        self.timeouts = 0
        self.worker_crashes = 0
        self.respawns = 0

    def run(self) -> TaskReport:
        while self._settled < len(self._tasks):
            self._reap_futures()
            self._enforce_deadlines()
            self._dispatch()
            if self._settled < len(self._tasks):
                self._wait_for_progress()
        return self.report()

    def close(self):
        for slot in self._slots:
            if slot.pool is not None:
                try:
                    slot.pool.shutdown(wait=True, cancel_futures=True)
                except Exception:
                    pass
                slot.pool = None

    def report(self) -> TaskReport:
        failures = [task.failure for task in self._tasks if task.failure is not None]
        return TaskReport(
            results=[task.result for task in self._tasks],
            failures=failures,
            attempts=dict(self._attempts),
            retries=self.retries,
            timeouts=self.timeouts,
            worker_crashes=self.worker_crashes,
            respawns=self.respawns,
            serial_fallback=self._serial and self.workers > 1,
        )

    def _wait_for_progress(self):
        futures = [
            t.future for t in self._tasks if t.status == "running" and t.future is not None
        ]
        if futures:
            wait(futures, timeout=_POLL_TICK, return_when=FIRST_COMPLETED)
            return
        # Nothing running: we are either backing off before a retry or
        # about to dispatch; sleep only as long as the nearest retry needs.
        now = time.monotonic()
        pending = [
            self._tasks[i].not_before for i in self._ready if self._tasks[i].not_before > now
        ]
        if pending:
            time.sleep(min(_POLL_TICK, max(min(pending) - now, 0.0)))
        else:
            time.sleep(0.001)

    # settling -------------------------------------------------------------

    def _reap_futures(self):
        for task in self._tasks:
            if task.status != "running" or task.future is None:
                continue
            future = task.future
            if not future.done():
                continue
            try:
                result = future.result()
            except BrokenExecutor as err:
                self._handle_crash(task, err)
            except BaseException as err:
                self._detach(task)
                self._attempt_failed(task, err, "error")
            else:
                self._detach(task)
                task.result = result
                task.status = "done"
                self._settled += 1

    def _detach(self, task):
        """Unbind ``task`` from its slot and return that slot."""
        slot = task.slot
        if slot is not None:
            slot.task_index = None
        task.future = None
        task.slot = None
        return slot

    def _handle_crash(self, task, err):
        kind = task.pending_kind or "crash"
        task.pending_kind = None
        slot = self._detach(task)
        if slot is not None:
            self._respawn_slot(slot)
        error: BaseException
        if kind == "timeout":
            error = TaskTimeoutError(task.index, self.config.timeout or 0.0)
        else:
            self.worker_crashes += 1
            error = WorkerCrashError(task.index, task.failures_count + 1)
            error.__cause__ = err
        self._attempt_failed(task, error, kind)

    def _attempt_failed(self, task, err, kind):
        task.failures_count += 1
        if task.failures_count <= self.config.max_retries:
            self.retries += 1
            delay = self.config.retry_delay(task.index, task.failures_count)
            task.not_before = time.monotonic() + delay
            task.status = "ready"
            self._ready.append(task.index)
            return
        task.status = "failed"
        task.failure = TaskFailure(
            index=task.index,
            attempts=self._attempts.get(task.index, task.failures_count),
            error=err,
            kind=kind,
        )
        self._settled += 1

    # deadlines ------------------------------------------------------------

    def _enforce_deadlines(self):
        timeout = self.config.timeout
        if self._serial or timeout is None:
            return
        now = time.monotonic()
        for task in self._tasks:
            if task.status != "running" or task.future is None or task.future.done():
                continue
            if task.pending_kind is not None:
                continue  # kill already in flight; wait for the pool to break
            if now - task.dispatched_at > timeout:
                self.timeouts += 1
                task.pending_kind = "timeout"
                self._kill_slot(task.slot)

    def _kill_slot(self, slot):
        if slot is None or slot.pool is None:
            return
        for pid in list(getattr(slot.pool, "_processes", None) or {}):
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass

    # slots ----------------------------------------------------------------

    def _drop_pool(self, slot):
        pool = slot.pool
        slot.pool = None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def _respawn_slot(self, slot):
        self._drop_pool(slot)
        slot.respawns += 1
        self.respawns += 1
        if slot.respawns > MAX_WORKER_RESPAWNS:
            slot.dead = True
            self._maybe_go_serial()

    def _retire_slot(self, slot):
        slot.dead = True
        self._drop_pool(slot)
        self._maybe_go_serial()

    def _maybe_go_serial(self):
        if self._slots and all(slot.dead for slot in self._slots):
            self._serial = True

    # dispatch -------------------------------------------------------------

    def _dispatch(self):
        if self._serial:
            self._dispatch_serial()
            return
        now = time.monotonic()
        for slot in self._slots:
            if not self._ready:
                return
            if slot.dead or slot.task_index is not None:
                continue
            index = self._pop_ready(now)
            if index is None:
                return
            task = self._tasks[index]
            try:
                if slot.pool is None:
                    slot.pool = ProcessPoolExecutor(max_workers=1, initializer=_worker_init)
                future = slot.pool.submit(_run_task, index, self.fn, task.payload)
            except BrokenExecutor:
                self._ready.appendleft(index)
                self._respawn_slot(slot)
            except (OSError, RuntimeError):
                self._ready.appendleft(index)
                self._retire_slot(slot)
            else:
                task.future = future
                task.slot = slot
                task.status = "running"
                task.dispatched_at = now
                slot.task_index = index
                self._attempts[index] = self._attempts.get(index, 0) + 1
                continue
            if self._serial:
                self._dispatch_serial()
                return

    def _pop_ready(self, now):
        for _ in range(len(self._ready)):
            index = self._ready.popleft()
            if self._tasks[index].not_before <= now:
                return index
            self._ready.append(index)
        return None

    def _dispatch_serial(self):
        with one_blas_thread():
            while self._ready:
                now = time.monotonic()
                index = self._pop_ready(now)
                if index is None:
                    return  # every remaining task is backing off; run() will sleep
                task = self._tasks[index]
                task.status = "running"
                self._attempts[index] = self._attempts.get(index, 0) + 1
                try:
                    faults.on_task_start(index)
                    result = self.fn(task.payload)
                except BaseException as err:
                    self._attempt_failed(task, err, "error")
                    continue
                task.result = result
                task.status = "done"
                self._settled += 1


def execute_tasks(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    workers: int | None = None,
    config: ExecutorConfig | None = None,
) -> TaskReport:
    """Run ``fn`` over ``tasks`` on the fault-tolerant fabric.

    Results come back in submission order; failures never abort siblings —
    inspect (or ``raise_first`` on) the returned :class:`TaskReport`.
    """
    task_list = list(tasks)
    run = _PoolRun(
        fn, task_list, effective_workers(workers, len(task_list)), config or ExecutorConfig()
    )
    try:
        return run.run()
    finally:
        run.close()
