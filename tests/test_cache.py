"""Tests for the bounded LRU map behind the process-wide memos."""

import sys
import threading

import pytest

from repro.utils.cache import BoundedCache


class TestBoundedCache:
    def test_touch_on_hit_protects_hot_key(self):
        """A re-used key survives eviction pressure from cold keys."""
        cache = BoundedCache(2)
        cache.put("hot", 1)
        cache.put("cold_a", 2)
        assert cache.get("hot") == 1  # touch: hot becomes most recent
        assert cache.put("cold_b", 3) == [("cold_a", 2)]
        assert cache.get("hot") == 1
        assert cache.get("cold_a") is None

    def test_eviction_order_and_evicted_pairs(self):
        cache = BoundedCache(3)
        for index, key in enumerate("abc"):
            assert cache.put(key, index) == []
        assert cache.keys() == ["a", "b", "c"]
        assert cache.put("d", 3) == [("a", 0)]
        assert cache.put("e", 4) == [("b", 1)]
        assert cache.keys() == ["c", "d", "e"]
        assert len(cache) == 3

    def test_reput_replaces_and_evicts_nothing(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10) == []
        assert cache.keys() == ["b", "a"]  # re-put refreshes, too
        assert cache.get("a") == 10
        assert len(cache) == 2

    def test_pop_and_clear(self):
        cache = BoundedCache(2)
        cache.put("a", 1)
        assert cache.pop("a") == 1
        assert cache.pop("a") is None
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0 and cache.keys() == []

    @pytest.mark.parametrize("maxsize", [0, -1])
    def test_maxsize_below_one_raises(self, maxsize):
        with pytest.raises(ValueError):
            BoundedCache(maxsize)

    def test_thread_hammer_stays_bounded(self):
        """8 threads of get/put never raise, never overfill, never lose an entry."""
        cache = BoundedCache(4)
        barrier = threading.Barrier(8)
        errors, sizes, evicted = [], [], []
        puts = 3000

        def hammer(thread):
            try:
                barrier.wait()
                for step in range(puts):
                    held = cache.keys()
                    if held:  # the oldest key: the next one other threads evict
                        cache.get(held[0])
                    evicted.append(len(cache.put((thread, step), step)))
                    sizes.append(len(cache))
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(index,)) for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert max(sizes) <= 4
        # Every key is put once: each is either still held or was evicted once.
        assert sum(evicted) + len(cache) == 8 * puts
        assert len(cache.keys()) == len(cache) == 4
