"""Byte-budgeted LRU cache for per-interval bitmap sub-results.

Workloads of range queries (Figs. 4–5 run hundreds of them) keep asking the
same per-attribute questions: ``evaluate_interval`` decodes and combines the
same stored bitvectors for every query that repeats an interval.  A
:class:`SubResultCache` memoizes those compressed sub-results so the batch
executor (:meth:`repro.core.engine.IncompleteDatabase.execute_batch`) pays
for each distinct ``(index, attribute, interval, semantics)`` once.

Keys are built by the index layer and must capture everything that affects
the answer: the attached index's name, its encoding and codec, the
attribute, the interval bounds, and the query semantics.  An index never
changes once built, so a key names one answer for the index's life; DDL
that replaces or detaches the index under that name drops its entries
(:meth:`SubResultCache.invalidate`) under the same lock every query
holds, so no entry outlives the index it was computed on.  Values
are the bitvectors ``evaluate_interval`` returns; they are immutable under
the codec operator protocol, so handing the same object to many queries is
safe.

Eviction is LRU under a byte budget measured with each value's own
``nbytes()`` — the same compressed-size accounting the paper's cost model
uses — and every hit/miss/store/eviction is reported through
:mod:`repro.observability` (see ``docs/observability.md``, "Cache
counters").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from repro import forksafe
from repro.observability import get_registry, record

__all__ = ["DEFAULT_CACHE_BYTES", "CacheStats", "SubResultCache"]

#: Default byte budget: generous for the paper-scale experiments (a 100k
#: record WAH result vector is ~12 KiB, so this holds thousands of them)
#: while staying irrelevant next to the indexes themselves.
DEFAULT_CACHE_BYTES = 16 << 20


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Point-in-time tallies of one cache's activity."""

    hits: int
    misses: int
    stores: int
    evictions: int
    invalidations: int
    entries: int
    bytes: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        if lookups == 0:
            return 0.0
        return self.hits / lookups

    def as_dict(self) -> dict:
        """JSON-serializable form (used by the ``/varz`` telemetry route)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "bytes": self.bytes,
            "hit_rate": self.hit_rate,
        }


class SubResultCache:
    """An LRU map from sub-result keys to bitvectors, bounded in bytes.

    Parameters
    ----------
    max_bytes:
        Byte budget for stored values (``None`` = unbounded).  A value
        larger than the whole budget is simply not stored.

    The cache is thread-safe: every thread that calls into one database
    (the query service's handlers, say) shares that database's cache.
    """

    def __init__(self, max_bytes: int | None = DEFAULT_CACHE_BYTES):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0 or None, got {max_bytes}")
        self._max_bytes = max_bytes
        self._entries: OrderedDict[Hashable, tuple[object, int]] = OrderedDict()
        self._lock = threading.Lock()
        self._nbytes = 0
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._invalidations = 0
        forksafe.register(self)

    def _reset_after_fork(self) -> None:
        # A fork child must not inherit this lock mid-held by a parent
        # thread; entries (immutable bitvectors) carry over safely.
        self._lock = threading.Lock()

    # -- lookup / store ----------------------------------------------------

    def get(self, key: Hashable):
        """The cached bitvector for ``key``, or None on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        if entry is None:
            record("cache.misses")
            return None
        record("cache.hits")
        return entry[0]

    def put(self, key: Hashable, value) -> None:
        """Store one sub-result, evicting least-recently-used entries.

        Re-storing an existing key refreshes its recency and replaces the
        value.  A value whose ``nbytes()`` exceeds the whole budget is
        dropped on the floor rather than wiping the cache to make room.
        """
        # Codecs report their payload-array extent (which may be a zero-copy
        # view of a loaded file buffer); coerce to a plain int so numpy
        # integer types never leak into the budget arithmetic or stats.
        nbytes = int(value.nbytes())
        if self._max_bytes is not None and nbytes > self._max_bytes:
            return
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._nbytes -= old[1]
            self._entries[key] = (value, nbytes)
            self._nbytes += nbytes
            self._stores += 1
            if self._max_bytes is not None:
                while self._nbytes > self._max_bytes and self._entries:
                    _, (_, dropped) = self._entries.popitem(last=False)
                    self._nbytes -= dropped
                    self._evictions += 1
                    evicted += 1
            self._publish_gauges()
        record("cache.stores")
        if evicted:
            record("cache.evictions", evicted)

    # -- invalidation ------------------------------------------------------

    def invalidate(self, index_name: str | None = None) -> int:
        """Drop entries; all of them, or those keyed to one index name.

        Keys built by the engine lead with the attached index's name, so
        ``invalidate("idx")`` removes exactly that index's sub-results.
        Returns the number of entries dropped.
        """
        with self._lock:
            if index_name is None:
                dropped = len(self._entries)
                self._entries.clear()
                self._nbytes = 0
            else:
                stale = [
                    key
                    for key in self._entries
                    if isinstance(key, tuple) and key and key[0] == index_name
                ]
                for key in stale:
                    _, nbytes = self._entries.pop(key)
                    self._nbytes -= nbytes
                dropped = len(stale)
            if dropped:
                self._invalidations += 1
            self._publish_gauges()
        if dropped:
            record("cache.invalidations")
            record("cache.invalidated_entries", dropped)
        return dropped

    # -- introspection -----------------------------------------------------

    def _publish_gauges(self) -> None:
        registry = get_registry()
        registry.gauge("cache.bytes").set(float(self._nbytes))
        registry.gauge("cache.entries").set(float(len(self._entries)))

    @property
    def max_bytes(self) -> int | None:
        """The byte budget (None = unbounded)."""
        return self._max_bytes

    @property
    def nbytes(self) -> int:
        """Bytes currently held by cached values."""
        return self._nbytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        """Immutable tallies of hits/misses/stores/evictions so far."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                invalidations=self._invalidations,
                entries=len(self._entries),
                bytes=self._nbytes,
            )

    def __repr__(self) -> str:
        budget = (
            "unbounded" if self._max_bytes is None else f"{self._max_bytes:,}B"
        )
        return (
            f"SubResultCache(entries={len(self._entries)}, "
            f"bytes={self._nbytes:,}, budget={budget})"
        )
