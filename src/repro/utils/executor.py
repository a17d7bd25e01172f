"""Fault-tolerant elastic task fabric.

The :class:`TaskExecutor` protocol (submit / poll / cancel with per-task
deadlines) abstracts "run these idempotent tasks somewhere"; the
:class:`LocalPoolExecutor` implementation wraps today's
``ProcessPoolExecutor`` path and adds the robustness layer the plain pool
lacks:

* **Task-level crash recovery.** ``concurrent.futures`` breaks the *whole*
  pool when one worker dies — every in-flight future raises
  ``BrokenProcessPool`` and completed-but-unretrieved work is lost. Here each
  worker slot is its own single-worker pool, so a crashed worker invalidates
  exactly the one task it was running: that task is requeued onto a respawned
  slot and every other result is kept. One injected worker death costs at
  most one task of recomputation.
* **Heartbeats + per-task deadlines.** Workers report ``start``/``beat``/
  ``done`` over a shared ``multiprocessing.Queue``. A task that exceeds its
  deadline, or whose worker goes silent past ``heartbeat_timeout``, has its
  worker SIGKILLed — which funnels into the same crash-recovery path.
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
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import random
import signal
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.utils import faults

__all__ = [
    "ExecutorConfig",
    "LocalPoolExecutor",
    "TaskExecutor",
    "TaskFailure",
    "TaskOutcome",
    "TaskReport",
    "TaskTimeoutError",
    "WorkerCrashError",
    "execute_tasks",
]

_POLL_TICK = 0.05


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
    """Retry / deadline / heartbeat policy for a :class:`LocalPoolExecutor`.

    ``timeout`` is the default per-task deadline (seconds, measured from
    dispatch and tightened to the worker's ``start`` report); ``submit`` may
    override it per task. ``max_retries`` bounds *re*-executions: a task runs
    at most ``1 + max_retries`` times. The retry delay for attempt ``a``
    (1-based) is ``backoff * backoff_factor**(a-1)`` scaled by a deterministic
    jitter in ``[1, 1 + jitter]`` seeded from ``(seed, index, a)``.
    ``heartbeat_timeout`` (off by default) kills workers that stop beating —
    the net for hung tasks that never return *and* never burn CPU.
    """

    timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.25
    backoff_factor: float = 2.0
    jitter: float = 0.25
    heartbeat_interval: float = 0.2
    heartbeat_timeout: float | None = None
    max_worker_respawns: int = 3
    seed: int = 0

    def retry_delay(self, index: int, attempt: int) -> float:
        base = self.backoff * self.backoff_factor ** max(attempt - 1, 0)
        if base <= 0:
            return 0.0
        if self.jitter <= 0:
            return base
        rng = random.Random(f"{self.seed}-{index}-{attempt}")
        return base * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class TaskFailure:
    """A task that exhausted its retry budget (or was cancelled)."""

    index: int
    attempts: int
    error: BaseException
    kind: str  # "error" | "timeout" | "crash" | "cancelled"

    def __str__(self) -> str:
        return (
            f"task {self.index} failed permanently after {self.attempts} "
            f"attempt(s) [{self.kind}]: {self.error!r}"
        )


@dataclass(frozen=True)
class TaskOutcome:
    """One settled task, as returned by :meth:`TaskExecutor.poll`."""

    index: int
    result: Any = None
    failure: TaskFailure | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


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


@runtime_checkable
class TaskExecutor(Protocol):
    """The executor seam: local pool today, multi-host dispatch tomorrow."""

    def submit(
        self, fn: Callable[[Any], Any], task: Any, *, timeout: float | None = None
    ) -> int:
        """Enqueue ``fn(task)``; returns the task's index (submission order)."""
        ...

    def poll(self, timeout: float | None = None) -> list[TaskOutcome]:
        """Advance execution; return newly settled tasks (maybe empty)."""
        ...

    def cancel(self, index: int) -> bool:
        """Cancel a task; True unless it already settled."""
        ...

    def done(self) -> bool:
        """True when every submitted task has settled."""
        ...

    def close(self) -> None:
        """Release workers. Safe to call more than once."""
        ...


# --------------------------------------------------------------------------
# Worker-side wrapper.  Runs inside the pool process: reports start / beat /
# done over the shared channel and gives the fault harness its hook.

_worker_channel = None


def _worker_init(channel, user_initializer, user_initargs):
    global _worker_channel
    _worker_channel = channel
    faults.mark_worker()
    if user_initializer is not None:
        user_initializer(*user_initargs)


def _run_task(index, attempt, fn, task, heartbeat_interval):
    channel = _worker_channel
    pid = os.getpid()
    stop = threading.Event()

    def send(kind):
        if channel is not None:
            try:
                channel.put_nowait((kind, pid, index, time.time()))
            except Exception:
                pass

    send("start")
    if channel is not None and heartbeat_interval and heartbeat_interval > 0:

        def beat():
            while not stop.wait(heartbeat_interval):
                send("beat")

        threading.Thread(target=beat, name="task-heartbeat", daemon=True).start()
    try:
        fault = faults.on_task_start(index, attempt)
        if fault is not None and fault.kind == "hang":
            stop.set()  # a hang is only a hang if the beats stop too
            time.sleep(fault.seconds)
        return fn(task)
    finally:
        stop.set()
        send("done")


class _Task:
    __slots__ = (
        "index",
        "fn",
        "payload",
        "timeout",
        "status",  # "ready" | "running" | "done" | "failed"
        "result",
        "failure",
        "failures_count",
        "not_before",
        "future",
        "slot",
        "dispatched_at",
        "started_at",
        "last_beat",
        "pending_kind",  # set when the parent kills the worker on purpose
    )

    def __init__(self, index, fn, payload, timeout):
        self.index = index
        self.fn = fn
        self.payload = payload
        self.timeout = timeout
        self.status = "ready"
        self.result = None
        self.failure = None
        self.failures_count = 0
        self.not_before = 0.0
        self.future = None
        self.slot = None
        self.dispatched_at = 0.0
        self.started_at = None
        self.last_beat = None
        self.pending_kind = None


class _Slot:
    __slots__ = ("pool", "pid", "respawns", "task_index", "dead")

    def __init__(self):
        self.pool = None
        self.pid = None
        self.respawns = 0
        self.task_index = None
        self.dead = False


class LocalPoolExecutor:
    """Single-host :class:`TaskExecutor` over per-slot worker processes.

    ``workers`` slots each hold a one-worker ``ProcessPoolExecutor`` so a
    worker crash is scoped to its own in-flight task. ``workers <= 1`` (or a
    total failure to spawn pools) runs tasks inline in this process —
    deadlines are not enforced there (a process cannot SIGKILL itself safely),
    but retries and reporting behave identically.
    """

    def __init__(
        self,
        workers: int,
        config: ExecutorConfig | None = None,
        initializer: Callable[..., None] | None = None,
        initargs: Sequence[Any] = (),
        pool_factory: Callable[[], Any] | None = None,
    ):
        self.config = config or ExecutorConfig()
        self.workers = max(int(workers), 1)
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self._pool_factory = pool_factory
        self._tasks: dict[int, _Task] = {}
        self._ready: deque[int] = deque()
        self._completions: deque[TaskOutcome] = deque()
        self._settled = 0
        self._slots = [_Slot() for _ in range(self.workers)] if self.workers > 1 else []
        self._serial = self.workers <= 1
        self._serial_initialized = False
        self._channel = None
        self._mp_context = multiprocessing.get_context()
        self._closed = False
        self._attempts: dict[int, int] = {}
        self.retries = 0
        self.timeouts = 0
        self.worker_crashes = 0
        self.respawns = 0

    # -- protocol ----------------------------------------------------------

    def submit(self, fn, task, *, timeout=None):
        if self._closed:
            raise RuntimeError("executor is closed")
        index = len(self._tasks)
        effective = self.config.timeout if timeout is None else timeout
        self._tasks[index] = _Task(index, fn, task, effective)
        self._ready.append(index)
        return index

    def poll(self, timeout=None):
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            self._step()
            if self._completions:
                drained = list(self._completions)
                self._completions.clear()
                return drained
            if self.done():
                return []
            if deadline is not None and time.monotonic() >= deadline:
                return []
            self._wait_for_progress(deadline)

    def cancel(self, index):
        task = self._tasks.get(index)
        if task is None or task.status in ("done", "failed"):
            return False
        if task.status == "running" and task.slot is not None:
            task.pending_kind = "cancelled"
            self._kill_slot(task.slot)
            return True
        if task.status == "ready":
            try:
                self._ready.remove(index)
            except ValueError:
                pass
            self._settle_failure(task, CancelledError(f"task {index} cancelled"), "cancelled")
            return True
        return False

    def done(self):
        return self._settled == len(self._tasks)

    def close(self):
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.pool is not None:
                try:
                    slot.pool.shutdown(wait=True, cancel_futures=True)
                except Exception:
                    pass
                slot.pool = None
        if self._channel is not None:
            try:
                self._channel.close()
            except Exception:
                pass
            self._channel = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def report(self) -> TaskReport:
        results = [None] * len(self._tasks)
        failures = []
        for index, task in self._tasks.items():
            results[index] = task.result
            if task.failure is not None:
                failures.append(task.failure)
        attempts = dict(self._attempts)
        return TaskReport(
            results=results,
            failures=sorted(failures, key=lambda f: f.index),
            attempts=attempts,
            retries=self.retries,
            timeouts=self.timeouts,
            worker_crashes=self.worker_crashes,
            respawns=self.respawns,
            serial_fallback=self._serial and self.workers > 1,
        )

    # -- internals ---------------------------------------------------------

    def _step(self):
        self._drain_channel()
        self._reap_futures()
        self._enforce_deadlines()
        self._dispatch()

    def _wait_for_progress(self, deadline):
        now = time.monotonic()
        tick = _POLL_TICK
        if deadline is not None:
            tick = min(tick, max(deadline - now, 0.0))
        futures = [
            t.future
            for t in self._tasks.values()
            if t.status == "running" and t.future is not None
        ]
        if futures:
            wait(futures, timeout=tick, return_when=FIRST_COMPLETED)
            return
        # Nothing running: we are either backing off before a retry or
        # about to dispatch; sleep only as long as the nearest retry needs.
        pending = [
            self._tasks[i].not_before for i in self._ready if self._tasks[i].not_before > now
        ]
        if pending:
            time.sleep(min(tick, max(min(pending) - now, 0.0)))
        else:
            time.sleep(0.001)

    # message pump ---------------------------------------------------------

    def _drain_channel(self):
        if self._channel is None:
            return
        while True:
            try:
                kind, pid, index, stamp = self._channel.get_nowait()
            except queue_module.Empty:
                return
            except (OSError, EOFError, ValueError):
                return
            task = self._tasks.get(index)
            if task is None or task.status != "running":
                continue
            now = time.monotonic()
            if task.slot is not None:
                task.slot.pid = pid
            if kind == "start":
                task.started_at = now
                task.last_beat = now
            elif kind in ("beat", "done"):
                task.last_beat = now

    # settling -------------------------------------------------------------

    def _reap_futures(self):
        for task in list(self._tasks.values()):
            if task.status != "running" or task.future is None:
                continue
            future = task.future
            if not future.done():
                continue
            slot = task.slot
            try:
                result = future.result()
            except BrokenExecutor as err:
                self._handle_crash(task, err)
                continue
            except BaseException as err:
                self._release_slot(slot)
                self._attempt_failed(task, err, "error")
                continue
            self._release_slot(slot)
            task.future = None
            task.slot = None
            task.result = result
            task.status = "done"
            self._settled += 1
            self._completions.append(TaskOutcome(task.index, result=result))

    def _handle_crash(self, task, err):
        slot = task.slot
        kind = task.pending_kind or "crash"
        task.pending_kind = None
        task.future = None
        task.slot = None
        if slot is not None:
            slot.task_index = None
            self._respawn_slot(slot)
        if kind == "cancelled":
            self._settle_failure(task, CancelledError(f"task {task.index} cancelled"), "cancelled")
            return
        if kind == "crash":
            self.worker_crashes += 1
        error: BaseException
        if kind == "timeout":
            error = TaskTimeoutError(task.index, task.timeout or 0.0)
        else:
            error = WorkerCrashError(task.index, task.failures_count + 1)
            error.__cause__ = err
        self._attempt_failed(task, error, kind, slot_already_released=True)

    def _attempt_failed(self, task, err, kind, slot_already_released=False):
        if not slot_already_released:
            task.future = None
            task.slot = None
        task.failures_count += 1
        if task.failures_count <= self.config.max_retries:
            self.retries += 1
            delay = self.config.retry_delay(task.index, task.failures_count)
            task.not_before = time.monotonic() + delay
            task.status = "ready"
            task.started_at = None
            task.last_beat = None
            self._ready.append(task.index)
            return
        self._settle_failure(task, err, kind)

    def _settle_failure(self, task, err, kind):
        task.status = "failed"
        task.failure = TaskFailure(
            index=task.index,
            attempts=self._attempts.get(task.index, task.failures_count),
            error=err,
            kind=kind,
        )
        self._settled += 1
        self._completions.append(TaskOutcome(task.index, failure=task.failure))

    # deadlines & heartbeats ----------------------------------------------

    def _enforce_deadlines(self):
        if self._serial:
            return
        now = time.monotonic()
        for task in self._tasks.values():
            if task.status != "running" or task.future is None or task.future.done():
                continue
            if task.pending_kind is not None:
                continue  # kill already in flight; wait for the pool to break
            started = task.started_at if task.started_at is not None else task.dispatched_at
            if task.timeout is not None and now - started > task.timeout:
                self.timeouts += 1
                task.pending_kind = "timeout"
                self._kill_slot(task.slot)
                continue
            hb = self.config.heartbeat_timeout
            if hb is not None and task.started_at is not None:
                last = task.last_beat if task.last_beat is not None else task.started_at
                if now - last > hb:
                    task.pending_kind = "crash"  # a silent worker counts as a crash
                    self._kill_slot(task.slot)

    def _kill_slot(self, slot):
        if slot is None:
            return
        pid = slot.pid
        if pid is None and slot.pool is not None:
            processes = getattr(slot.pool, "_processes", None) or {}
            pid = next(iter(processes), None)
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass

    # slots ----------------------------------------------------------------

    def _release_slot(self, slot):
        if slot is not None:
            slot.task_index = None

    def _respawn_slot(self, slot):
        pool = slot.pool
        slot.pool = None
        slot.pid = None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        slot.respawns += 1
        self.respawns += 1
        if slot.respawns > self.config.max_worker_respawns:
            slot.dead = True
            self._maybe_go_serial()

    def _retire_slot(self, slot):
        slot.dead = True
        pool = slot.pool
        slot.pool = None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
        self._maybe_go_serial()

    def _maybe_go_serial(self):
        if self._slots and all(slot.dead for slot in self._slots):
            self._serial = True

    def _make_pool(self):
        if self._pool_factory is not None:
            return self._pool_factory()
        if self._channel is None:
            self._channel = self._mp_context.Queue()
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._mp_context,
            initializer=_worker_init,
            initargs=(self._channel, self.initializer, self.initargs),
        )

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
            if slot.pool is None:
                try:
                    slot.pool = self._make_pool()
                except (OSError, PermissionError):
                    self._ready.appendleft(index)
                    self._retire_slot(slot)
                    if self._serial:
                        self._dispatch_serial()
                        return
                    continue
            try:
                future = slot.pool.submit(
                    _run_task,
                    index,
                    task.failures_count,
                    task.fn,
                    task.payload,
                    self.config.heartbeat_interval,
                )
            except BrokenExecutor:
                self._ready.appendleft(index)
                self._respawn_slot(slot)
                if self._serial:
                    self._dispatch_serial()
                    return
                continue
            except (OSError, PermissionError, RuntimeError):
                self._ready.appendleft(index)
                self._retire_slot(slot)
                if self._serial:
                    self._dispatch_serial()
                    return
                continue
            task.future = future
            task.slot = slot
            task.status = "running"
            task.dispatched_at = now
            task.started_at = None
            task.last_beat = None
            slot.task_index = index
            self._attempts[index] = self._attempts.get(index, 0) + 1

    def _pop_ready(self, now):
        for _ in range(len(self._ready)):
            index = self._ready.popleft()
            if self._tasks[index].not_before <= now:
                return index
            self._ready.append(index)
        return None

    def _dispatch_serial(self):
        if not self._serial_initialized:
            self._serial_initialized = True
            if self.initializer is not None:
                self.initializer(*self.initargs)
        while self._ready:
            now = time.monotonic()
            index = self._pop_ready(now)
            if index is None:
                return  # every remaining task is backing off; poll will sleep
            task = self._tasks[index]
            task.status = "running"
            self._attempts[index] = self._attempts.get(index, 0) + 1
            try:
                faults.on_task_start(index, task.failures_count)
                result = task.fn(task.payload)
            except BaseException as err:
                self._attempt_failed(task, err, "error")
                continue
            task.result = result
            task.status = "done"
            self._settled += 1
            self._completions.append(TaskOutcome(index, result=result))


def execute_tasks(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    workers: int | None = None,
    config: ExecutorConfig | None = None,
    initializer: Callable[..., None] | None = None,
    initargs: Sequence[Any] = (),
) -> TaskReport:
    """Run ``fn`` over ``tasks`` on the fault-tolerant fabric.

    Results come back in submission order; failures never abort siblings —
    inspect (or ``raise_first`` on) the returned :class:`TaskReport`.
    """
    from repro.utils.parallel import effective_workers

    task_list = list(tasks)
    config = config or ExecutorConfig()
    pool_size = effective_workers(workers, len(task_list))
    executor = LocalPoolExecutor(
        pool_size, config=config, initializer=initializer, initargs=initargs
    )
    try:
        for task in task_list:
            executor.submit(fn, task)
        while not executor.done():
            executor.poll()
        return executor.report()
    finally:
        executor.close()
