"""The bounded LRU map behind every process-wide memo of the solver stack.

Operators, factorizations, normalizations, port modes and solve results are
all reused across designs by content key; each of those memos is one
:class:`BoundedCache`, and so is the decoded-shard cache of
:class:`repro.data.loader.ShardDataLoader`.  What a memo adds on top (hit
counters, byte accounting, a "solved for enough modes" rule) stays with its
owner.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class BoundedCache:
    """Thread-safe LRU map holding at most ``maxsize`` entries.

    A hit refreshes its entry; an insert beyond capacity evicts the least
    recently used entries and returns them, so owners can debit whatever
    they account per entry.  One lock guards the bookkeeping; callers build
    values outside it, so two threads racing one cold key may both build
    (the last :meth:`put` wins).  ``None`` marks a miss, so it cannot be
    stored as a value.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"maxsize must be at least 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """The value under ``key`` (refreshed as most recent), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> list[tuple]:
        """Store ``value`` as most recent; return the evicted ``(key, value)`` pairs.

        Re-putting a present key replaces its value and evicts nothing.
        """
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = []
            while len(self._entries) > self.maxsize:
                evicted.append(self._entries.popitem(last=False))
            return evicted

    def pop(self, key):
        """Remove and return the value under ``key`` (None when absent)."""
        with self._lock:
            return self._entries.pop(key, None)

    def keys(self) -> list:
        """Snapshot of the keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
