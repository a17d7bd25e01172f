"""Worker-pool helpers.

The CPU count available to this process (:func:`cpu_count`) and worker-count
resolution (:func:`effective_workers`) for the process fan-out of
:func:`repro.utils.executor.execute_tasks`.
"""

from __future__ import annotations

import os


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
