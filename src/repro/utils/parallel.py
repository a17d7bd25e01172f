"""Worker-pool helpers.

Worker-count resolution (:func:`effective_workers`) for the process fan-out
of :func:`repro.utils.executor.execute_tasks`, and a thread prefetcher that
background-loads an ordered task sequence (:class:`Prefetcher`).
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor


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


class Prefetcher:
    """Background-load an ordered task sequence with bounded lookahead.

    The consumer knows, up front, the exact order in which it will need a
    sequence of expensive loads (e.g. the shard files a training epoch will
    touch).  A prefetcher runs ``fn(task)`` for the next few tasks on
    background *threads* (the payloads are large NumPy arrays, so processes
    would only add pickling) while the consumer works, and hands results back
    strictly in task order via :meth:`next`.

    Two properties matter to callers:

    * **Order-independence** — results come back in the planned order no
      matter how many workers run or which finishes first, so a prefetched
      pipeline is bit-identical to the synchronous one.
    * **Bounded lookahead** — at most ``depth`` results are in flight or
      waiting at any time, so memory stays bounded by the lookahead window,
      not the task list.

    With ``workers <= 0`` the prefetcher degrades to calling ``fn``
    synchronously in :meth:`next` — the debuggable path, and the guarantee
    that a prefetcher never *changes* results, only their latency.
    """

    def __init__(self, fn, tasks, workers: int = 1, depth: int | None = None):
        self._fn = fn
        self._tasks = deque(tasks)
        self.workers = max(int(workers), 0)
        if depth is None:
            depth = self.workers + 1
        if depth < 1:
            raise ValueError(f"depth must be at least 1, got {depth}")
        self.depth = int(depth)
        self._futures: deque = deque()
        self._executor = (
            ThreadPoolExecutor(max_workers=self.workers)
            if self.workers > 0 and self._tasks
            else None
        )
        self._pump()

    def _pump(self) -> None:
        if self._executor is None:
            return
        while self._tasks and len(self._futures) < self.depth:
            self._futures.append(self._executor.submit(self._fn, self._tasks.popleft()))

    def __len__(self) -> int:
        return len(self._tasks) + len(self._futures)

    def next(self):
        """Result of the next task in the planned order (blocks until ready)."""
        if self._executor is None:
            if not self._tasks:
                raise StopIteration("prefetcher exhausted")
            return self._fn(self._tasks.popleft())
        if not self._futures:
            raise StopIteration("prefetcher exhausted")
        future = self._futures.popleft()
        try:
            result = future.result()
        finally:
            self._pump()
        return result

    def close(self) -> None:
        """Cancel outstanding work and release the worker threads."""
        for future in self._futures:
            future.cancel()
        self._futures.clear()
        self._tasks.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "Prefetcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

