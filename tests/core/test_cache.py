"""Unit tests for the byte-budgeted sub-result cache."""

import numpy as np
import pytest

from repro.bitvector.ops import make_bitvector
from repro.core.cache import CacheStats, SubResultCache
from repro.observability import MetricsRegistry, use_registry


def _vector(nbits=1024, every=3, codec="wah"):
    bools = np.zeros(nbits, dtype=bool)
    bools[::every] = True
    return make_bitvector(bools, codec)


class TestLookupAndStore:
    def test_miss_then_hit(self):
        cache = SubResultCache()
        vec = _vector()
        assert cache.get("k") is None
        cache.put("k", vec)
        assert cache.get("k") is vec
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)

    def test_restore_refreshes_value(self):
        cache = SubResultCache()
        first, second = _vector(every=2), _vector(every=5)
        cache.put("k", first)
        cache.put("k", second)
        assert cache.get("k") is second
        assert len(cache) == 1
        assert cache.nbytes == second.nbytes()

    def test_contains_and_repr(self):
        cache = SubResultCache(max_bytes=1 << 16)
        cache.put("k", _vector())
        assert "k" in cache
        assert "missing" not in cache
        assert "entries=1" in repr(cache)


class TestStoredForm:
    """A cached WAH sub-result holds one form: its compressed stream."""

    def test_cached_op_result_drops_its_group_array(self):
        a, b = _vector(nbits=5000, every=2), _vector(nbits=5000, every=3)
        derived = a | b
        assert derived._groups is not None and derived._words is None
        cache = SubResultCache()
        cache.put("k", derived)  # nbytes() builds the stream
        cached = cache.get("k")
        assert cached._groups is None
        assert cache.nbytes == cached.words.nbytes
        expect = np.zeros(5000, dtype=bool)
        expect[::2] = True
        expect[::3] = True
        assert cached.count() == int(expect.sum())
        assert np.array_equal(cached.to_indices(), np.flatnonzero(expect))
        masked = cached & a
        assert np.array_equal(masked.to_indices(), a.to_indices())
        assert masked.count() == a.count()


class TestByteBudget:
    def test_lru_eviction_order(self):
        vec = _vector()
        cache = SubResultCache(max_bytes=3 * vec.nbytes())
        for key in "abc":
            cache.put(key, _vector())
        cache.get("a")  # refresh a; b is now least recent
        cache.put("d", _vector())
        assert "b" not in cache
        assert all(k in cache for k in "acd")
        assert cache.stats().evictions == 1

    def test_budget_is_respected(self):
        vec = _vector()
        cache = SubResultCache(max_bytes=2 * vec.nbytes())
        for key in range(10):
            cache.put(key, _vector())
        assert cache.nbytes <= cache.max_bytes
        assert len(cache) == 2

    def test_oversized_value_not_stored(self):
        vec = _vector()
        cache = SubResultCache(max_bytes=vec.nbytes() - 1)
        cache.put("big", vec)
        assert "big" not in cache
        assert cache.nbytes == 0

    def test_zero_budget_disables_storage(self):
        cache = SubResultCache(max_bytes=0)
        cache.put("k", _vector())
        assert len(cache) == 0

    def test_unbounded_budget(self):
        cache = SubResultCache(max_bytes=None)
        for key in range(50):
            cache.put(key, _vector())
        assert len(cache) == 50
        assert cache.stats().evictions == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            SubResultCache(max_bytes=-1)


class TestInvalidation:
    def test_invalidate_all(self):
        cache = SubResultCache()
        cache.put(("idx", "a"), _vector())
        cache.put(("idx2", "a"), _vector())
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.nbytes == 0

    def test_invalidate_one_index(self):
        cache = SubResultCache()
        cache.put(("idx", "a"), _vector())
        cache.put(("idx", "b"), _vector())
        cache.put(("other", "a"), _vector())
        assert cache.invalidate("idx") == 2
        assert ("other", "a") in cache
        assert cache.stats().invalidations == 1

    def test_invalidate_unknown_is_noop(self):
        cache = SubResultCache()
        cache.put(("idx", "a"), _vector())
        assert cache.invalidate("ghost") == 0
        assert cache.stats().invalidations == 0


class TestCounters:
    def test_hit_rate(self):
        stats = CacheStats(
            hits=3, misses=1, stores=1, evictions=0,
            invalidations=0, entries=1, bytes=10,
        )
        assert stats.hit_rate == 0.75
        empty = CacheStats(0, 0, 0, 0, 0, 0, 0)
        assert empty.hit_rate == 0.0

    def test_metrics_reported_through_registry(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            vec = _vector()
            cache = SubResultCache(max_bytes=2 * vec.nbytes())
            cache.put("a", _vector())
            cache.put("b", _vector())
            cache.get("a")
            cache.get("ghost")
            cache.put("c", _vector())  # evicts
            cache.invalidate()
        snapshot = registry.snapshot()
        counters = dict(snapshot.counters)
        assert counters["cache.hits"] == 1
        assert counters["cache.misses"] == 1
        assert counters["cache.stores"] == 3
        assert counters["cache.evictions"] == 1
        assert counters["cache.invalidations"] == 1
        gauges = dict(snapshot.gauges)
        assert gauges["cache.bytes"] == 0.0
        assert gauges["cache.entries"] == 0.0
