"""Always-on workload recording: what ran, with which plan, at what cost.

The metrics registry answers *how much* work the process has done; this
module answers *which queries* caused it.  A :class:`WorkloadRecorder`
keeps one normalized :class:`WorkloadRecord` per query executed through
:meth:`repro.core.engine.IncompleteDatabase.execute` /
:meth:`~repro.core.engine.IncompleteDatabase.execute_batch` and per
scatter-gather query on :class:`repro.shard.ShardedDatabase`, in a bounded
in-memory ring, optionally mirrored to a rotating JSONL sink for durable
history.  :meth:`WorkloadRecorder.summary` aggregates the ring into the
shape the workload-adaptive advisor consumes: per-attribute and
per-interval frequencies, plan mix, semantics mix, and latency
percentiles.

Like the metrics registry, the default recorder is a shared no-op
(:data:`NULL_RECORDER`), so the engine's hot path pays one attribute read
per query until an operator installs a real recorder with
:func:`set_recorder` / :func:`use_recorder`.  Recording is thread-safe:
the engine's batch fan-out and the query service's handlers record from
several threads.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro import forksafe
from repro.observability.metrics import record as _record_metric
from repro.observability.slowlog import SlowQueryLog
from repro.observability.trace import QueryTrace

__all__ = [
    "NULL_RECORDER",
    "NullWorkloadRecorder",
    "RotatingJsonlSink",
    "WorkloadRecord",
    "WorkloadRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "workload_summary",
]

#: Counter prefixes copied from a query's span tree onto its record.  These
#: are the cost-model quantities the advisor (and the slow-query log) care
#: about; everything else on the trace stays trace-only.
_RECORD_COUNTER_PREFIXES = (
    "bitmap.", "wah.", "bbc.", "vafile.", "cache.",
)


@dataclass(frozen=True, slots=True)
class WorkloadRecord:
    """One normalized row of query history.

    ``intervals`` is the query's search key as ``(attribute, lo, hi)``
    triples in query order — hashable, JSON-friendly, and exactly the
    granularity the advisor's frequency tables need.  ``counters`` carries
    the cost-model counters attributed to this query's trace (empty when
    the query ran untraced).
    """

    ts: float
    source: str  # "engine" or "shard"
    batch: bool
    intervals: tuple[tuple[str, int, int], ...]
    semantics: str
    index: str
    kind: str
    matches: int
    elapsed_ns: int
    counters: Mapping[str, float] = field(default_factory=dict)
    shards_executed: int = 0
    shards_pruned: int = 0

    @property
    def attributes(self) -> tuple[str, ...]:
        """The attributes the query constrained."""
        return tuple(attr for attr, _, _ in self.intervals)

    def as_dict(self) -> dict:
        """JSON-serializable form (one sink/JSONL line per record)."""
        return {
            "ts": self.ts,
            "source": self.source,
            "batch": self.batch,
            "intervals": [list(iv) for iv in self.intervals],
            "semantics": self.semantics,
            "index": self.index,
            "kind": self.kind,
            "matches": self.matches,
            "elapsed_ns": self.elapsed_ns,
            "counters": dict(self.counters),
            "shards_executed": self.shards_executed,
            "shards_pruned": self.shards_pruned,
        }


class RotatingJsonlSink:
    """Append-only JSONL file with size-based rotation.

    Writes one JSON object per record to ``path``; when the file would
    exceed ``max_bytes`` it is rotated to ``path.1`` (existing backups
    shifting to ``path.2`` … ``path.<backups>``, the oldest dropped), so a
    long-lived service keeps a bounded, recent, durable query history.
    Writes are serialized by an internal lock.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        max_bytes: int = 4 << 20,
        backups: int = 3,
    ):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        if backups < 0:
            raise ValueError(f"backups must be >= 0, got {backups}")
        self._path = os.fspath(path)
        self._max_bytes = max_bytes
        self._backups = backups
        self._lock = threading.Lock()
        self._handle = None
        self._size = 0
        forksafe.register(self)

    def _reset_after_fork(self) -> None:
        # Fresh lock, and abandon the inherited file object without
        # closing it: closing would flush any partial parent-side buffer
        # into the shared file from the child.  The child reopens (append
        # mode) on its next write.
        self._lock = threading.Lock()
        self._handle = None
        self._size = 0

    @property
    def path(self) -> str:
        """The active log file path."""
        return self._path

    def _open(self) -> None:
        self._handle = open(self._path, "a", encoding="utf-8")
        self._size = self._handle.tell()

    def _rotate(self) -> None:
        self._handle.close()
        self._handle = None
        if self._backups == 0:
            os.remove(self._path)
        else:
            for n in range(self._backups - 1, 0, -1):
                older = f"{self._path}.{n}"
                if os.path.exists(older):
                    os.replace(older, f"{self._path}.{n + 1}")
            os.replace(self._path, f"{self._path}.1")
        self._open()

    def write(self, record: WorkloadRecord) -> None:
        """Append one record as a JSON line, rotating when over budget."""
        line = json.dumps(record.as_dict(), sort_keys=True) + "\n"
        data_len = len(line.encode("utf-8"))
        with self._lock:
            if self._handle is None:
                self._open()
            if self._size and self._size + data_len > self._max_bytes:
                self._rotate()
                _record_metric("workload.sink_rotations")
            self._handle.write(line)
            self._handle.flush()
            self._size += data_len

    def close(self) -> None:
        """Close the active file handle (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "RotatingJsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class WorkloadRecorder:
    """Bounded ring of :class:`WorkloadRecord` plus optional sink/slow log.

    Parameters
    ----------
    capacity:
        Ring size; the summary and ``records()`` see the most recent
        ``capacity`` queries (the sink, if any, sees everything).
    sink:
        A :class:`RotatingJsonlSink` (or anything with ``write(record)``)
        receiving every record durably.
    slow_log:
        A :class:`~repro.observability.slowlog.SlowQueryLog`; when set,
        the engine force-builds a :class:`QueryTrace` for every recorded
        query (if the log wants traces) and the log keeps the N worst
        threshold-crossing queries with their span trees.
    """

    #: Checked by the engine before paying any recording cost.
    active = True

    def __init__(
        self,
        capacity: int = 4096,
        sink=None,
        slow_log: SlowQueryLog | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._ring: list[WorkloadRecord] = []
        self._next = 0  # ring write position once full
        self._total = 0
        self._lock = threading.Lock()
        self._sink = sink
        self.slow_log = slow_log
        forksafe.register(self)

    def _reset_after_fork(self) -> None:
        self._lock = threading.Lock()

    # -- engine-facing surface ---------------------------------------------

    @property
    def wants_trace(self) -> bool:
        """Whether queries should be force-traced for the slow-query log."""
        return self.slow_log is not None and self.slow_log.capture_traces

    def record_query(
        self,
        *,
        source: str,
        batch: bool,
        query,
        semantics,
        index: str,
        kind: str,
        matches: int,
        elapsed_ns: int,
        trace: QueryTrace | None = None,
        shards_executed: int = 0,
        shards_pruned: int = 0,
    ) -> WorkloadRecord:
        """Normalize one executed query into the ring (and sink/slow log)."""
        rec = WorkloadRecord(
            ts=time.time(),
            source=source,
            batch=batch,
            intervals=tuple(
                (name, interval.lo, interval.hi)
                for name, interval in query.items()
            ),
            semantics=getattr(semantics, "value", str(semantics)),
            index=index,
            kind=kind,
            matches=matches,
            elapsed_ns=elapsed_ns,
            counters=_trace_counters(trace),
            shards_executed=shards_executed,
            shards_pruned=shards_pruned,
        )
        with self._lock:
            if len(self._ring) < self._capacity:
                self._ring.append(rec)
            else:
                self._ring[self._next] = rec
                self._next = (self._next + 1) % self._capacity
            self._total += 1
        _record_metric("workload.records")
        if self._sink is not None:
            self._sink.write(rec)
        if self.slow_log is not None and self.slow_log.offer(rec, trace):
            _record_metric("workload.slow_queries")
        return rec

    # -- inspection ---------------------------------------------------------

    @property
    def total_recorded(self) -> int:
        """Queries recorded over the recorder's lifetime (ring may be smaller)."""
        return self._total

    def records(self) -> list[WorkloadRecord]:
        """The retained records, oldest first."""
        with self._lock:
            if len(self._ring) < self._capacity:
                return list(self._ring)
            return self._ring[self._next:] + self._ring[: self._next]

    def summary(self) -> dict:
        """Aggregate the ring into the advisor's input shape.

        Returns a JSON-serializable dict: total/window counts, per-attribute
        and per-``(attribute, lo, hi)`` frequencies, plan mix (per index and
        per kind), semantics and source mixes, and latency percentiles over
        the window.
        """
        records = self.records()
        attributes: dict[str, int] = {}
        intervals: dict[str, int] = {}
        by_index: dict[str, int] = {}
        by_kind: dict[str, int] = {}
        by_semantics: dict[str, int] = {}
        by_source: dict[str, int] = {}
        latencies: list[int] = []
        matches = 0
        for rec in records:
            for attr, lo, hi in rec.intervals:
                attributes[attr] = attributes.get(attr, 0) + 1
                key = f"{attr}[{lo},{hi}]"
                intervals[key] = intervals.get(key, 0) + 1
            by_index[rec.index] = by_index.get(rec.index, 0) + 1
            by_kind[rec.kind] = by_kind.get(rec.kind, 0) + 1
            by_semantics[rec.semantics] = by_semantics.get(rec.semantics, 0) + 1
            by_source[rec.source] = by_source.get(rec.source, 0) + 1
            latencies.append(rec.elapsed_ns)
            matches += rec.matches
        latencies.sort()
        return {
            "total_recorded": self.total_recorded,
            "window": len(records),
            "attributes": dict(sorted(attributes.items())),
            "intervals": dict(sorted(intervals.items())),
            "plan_mix": dict(sorted(by_index.items())),
            "kind_mix": dict(sorted(by_kind.items())),
            "semantics_mix": dict(sorted(by_semantics.items())),
            "source_mix": dict(sorted(by_source.items())),
            "matches": matches,
            "latency_ns": {
                "p50": _percentile(latencies, 0.50),
                "p90": _percentile(latencies, 0.90),
                "p99": _percentile(latencies, 0.99),
                "max": latencies[-1] if latencies else 0,
                "mean": (
                    sum(latencies) / len(latencies) if latencies else 0.0
                ),
            },
        }

    def clear(self) -> None:
        """Drop the ring (the lifetime total and the sink are untouched)."""
        with self._lock:
            self._ring.clear()
            self._next = 0

    def __repr__(self) -> str:
        return (
            f"WorkloadRecorder(window={len(self.records())}, "
            f"total={self.total_recorded}, "
            f"slow_log={self.slow_log is not None})"
        )


def _trace_counters(trace: QueryTrace | None) -> dict[str, float]:
    """Cost-model counters summed over a query's span tree."""
    if trace is None:
        return {}
    totals: dict[str, float] = {}
    for _, span in trace.root.walk():
        for name, value in span.metrics.items():
            if name.startswith(_RECORD_COUNTER_PREFIXES):
                totals[name] = totals.get(name, 0) + value
    return totals


def _percentile(sorted_values: Sequence[int], q: float) -> int:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


class NullWorkloadRecorder(WorkloadRecorder):
    """The default recorder: discards everything at one attribute read."""

    active = False

    def __init__(self):
        super().__init__(capacity=1)

    def record_query(self, **kwargs) -> None:  # type: ignore[override]
        return None


#: The process-default recorder; records vanish into it.
NULL_RECORDER = NullWorkloadRecorder()

_recorder: WorkloadRecorder = NULL_RECORDER


def get_recorder() -> WorkloadRecorder:
    """The currently installed workload recorder."""
    return _recorder


def set_recorder(recorder: WorkloadRecorder) -> WorkloadRecorder:
    """Install a recorder process-wide; returns the previous one."""
    global _recorder
    previous = _recorder
    _recorder = recorder
    return previous


def workload_summary() -> dict:
    """The installed recorder's :meth:`~WorkloadRecorder.summary`.

    The advisor-facing convenience: callers don't need to hold the
    recorder to ask what the workload looked like.  Empty-shaped (all
    zeros) under the default :data:`NULL_RECORDER`.
    """
    return get_recorder().summary()


@contextmanager
def use_recorder(
    recorder: WorkloadRecorder | None = None,
) -> Iterator[WorkloadRecorder]:
    """Install a recorder (a fresh one by default) for the ``with`` body."""
    if recorder is None:
        recorder = WorkloadRecorder()
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
