"""Process-wide, swappable metrics registry.

Instrumented code accounts its work through a :class:`MetricsRegistry`:
counters for monotonically growing tallies (words decoded, bitvectors
touched), gauges for point-in-time values, and power-of-two-bucketed
histograms for ns-resolution latencies.  The default registry is a
:class:`NullRegistry` whose instruments are shared no-ops, so the hot paths
(WAH word loops, VA-file scans) stay at their uninstrumented cost until an
operator installs a real registry with :func:`set_registry` or
:func:`use_registry`.  Query entry points run under a context-local tally
(:class:`_QueryTally`), so a query's counters reach the registry once,
when it ends, however many operations it made.

Instruments are thread-safe: the query service's handlers and the
snapshot writer increment counters from several threads, so every
mutation (``inc``/``set``/``observe``) takes a per-instrument lock —
``self.value += amount`` spans three bytecodes in CPython and *does* lose
updates under contention without one.  Instrument creation is
double-checked against a registry-level lock.  The locks only cost
anything once a real registry is installed (the null instruments override
every mutator with a pass), and there is still no allocation after an
instrument's first use.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro import forksafe
from repro.observability.trace import current_span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "NULL_REGISTRY",
    "suppressed",
    "enabled",
    "get_registry",
    "record",
    "observe",
    "set_registry",
    "use_registry",
]


class Counter:
    """A monotonically increasing tally (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1)."""
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A point-in-time value that can move both ways (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the current value upward."""
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the current value downward."""
        with self._lock:
            self.value -= amount

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


#: Number of power-of-two histogram buckets: bucket ``i`` holds values whose
#: bit length is ``i``, i.e. the range ``[2**(i-1), 2**i)``; bucket 0 holds 0.
_NBUCKETS = 64


class Histogram:
    """A power-of-two-bucketed histogram for ns-scale measurements.

    Buckets are exponential (value ``v`` lands in bucket ``v.bit_length()``),
    which keeps :meth:`observe` at two int ops and one list write while still
    supporting useful quantile estimates over nine decades of nanoseconds.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0
        self.min: int | float | None = None
        self.max: int | float | None = None
        self.buckets = [0] * _NBUCKETS
        self._lock = threading.Lock()

    def observe(self, value: int | float) -> None:
        """Record one measurement (negative values clamp to bucket 0)."""
        index = int(value).bit_length() if value > 0 else 0
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self.buckets[min(index, _NBUCKETS - 1)] += 1

    @contextmanager
    def time(self) -> Iterator[None]:
        """Observe the wall-clock nanoseconds of the ``with`` body."""
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.observe(time.perf_counter_ns() - start)

    @property
    def mean(self) -> float:
        """Arithmetic mean of observations (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bucket bound)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, n in enumerate(self.buckets):
            seen += n
            if seen >= target:
                return float(2**index - 1) if index else 0.0
        return float(self.max if self.max is not None else 0.0)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, count={self.count}, "
            f"mean={self.mean:.1f})"
        )


@dataclass(frozen=True, slots=True)
class HistogramSnapshot:
    """Immutable summary of one histogram at snapshot time."""

    count: int
    total: float
    min: float
    max: float
    mean: float
    p50: float
    p99: float


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Immutable view of a registry's instruments at one moment."""

    counters: Mapping[str, int | float]
    gauges: Mapping[str, float]
    histograms: Mapping[str, HistogramSnapshot]

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)


class MetricsRegistry:
    """A namespace of counters, gauges, and histograms.

    Instruments are created on first use and live for the registry's
    lifetime, so call sites can re-fetch by name without allocation churn.
    Metric names are dot-separated paths (``wah.words_decoded``,
    ``engine.query_ns.bre``); exporters map them to their format's
    conventions (see :mod:`repro.observability.export`).
    """

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()
        forksafe.register(self)

    def _reset_after_fork(self) -> None:
        # Replace every lock a forking parent thread may have held; the
        # instrument *values* carry over (they are the parent's snapshot).
        self._lock = threading.Lock()
        for table in (self._counters, self._gauges, self._histograms):
            for instrument in table.values():
                instrument._lock = threading.Lock()

    def _get_or_create(self, table: dict, name: str, factory):
        # Fast path: racing readers see either None or the one instrument.
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.get(name)
                if instrument is None:
                    instrument = table[name] = factory(name)
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter with this name, created on first use."""
        return self._get_or_create(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge with this name, created on first use."""
        return self._get_or_create(self._gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram with this name, created on first use."""
        return self._get_or_create(self._histograms, name, Histogram)

    def timer(self, name: str):
        """Context manager timing the ``with`` body into a histogram."""
        return self.histogram(name).time()

    def snapshot(self) -> MetricsSnapshot:
        """An immutable copy of every instrument's current state."""
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        return MetricsSnapshot(
            counters={n: c.value for n, c in counters},
            gauges={n: g.value for n, g in gauges},
            histograms={
                n: HistogramSnapshot(
                    count=h.count,
                    total=float(h.total),
                    min=float(h.min if h.min is not None else 0),
                    max=float(h.max if h.max is not None else 0),
                    mean=h.mean,
                    p50=h.quantile(0.5),
                    p99=h.quantile(0.99),
                )
                for n, h in histograms
            },
        )

    def reset(self) -> None:
        """Drop every instrument."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


class _NullCounter(Counter):
    """Shared do-nothing counter handed out by the null registry."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: int | float) -> None:
        pass

    @contextmanager
    def time(self) -> Iterator[None]:
        yield


class NullRegistry(MetricsRegistry):
    """The default registry: every instrument is a shared no-op.

    Keeping the interface identical means instrumented code never branches
    on whether metrics are on; it just talks to whatever registry is
    installed, and this one discards everything.
    """

    def __init__(self):
        super().__init__()
        self._counter = _NullCounter("<null>")
        self._gauge = _NullGauge("<null>")
        self._histogram = _NullHistogram("<null>")

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def histogram(self, name: str) -> Histogram:
        return self._histogram

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(counters={}, gauges={}, histograms={})


#: The process-default registry; instruments vanish into it.
NULL_REGISTRY = NullRegistry()

_registry: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently installed registry."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install a registry process-wide; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


@contextmanager
def use_registry(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Install a registry (a fresh one by default) for the ``with`` body."""
    if registry is None:
        registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


#: The open tally (metric name -> total) of the query running in this
#: context, a :class:`_Discarded` one inside :func:`suppressed`, or None.
_tally: ContextVar[dict | None] = ContextVar("repro_tally", default=None)


class _Discarded(dict):
    """A tally :func:`suppressed` throws away; :func:`observe` skips it."""


#: The tally :func:`suppressed` opens; :func:`record` never writes to it.
_DISCARD: dict = _Discarded()


class _QueryTally:
    """Run one query's ``with`` body under a tally; enter gives whether observed.

    With a real registry installed, every :func:`record` in the body adds
    to a plain dict, and the body's end makes one ``Counter.inc`` per
    name, however many operations the query made.  Inside an open tally
    (a batch, a fan-out, a probe under :func:`suppressed`) the body joins
    it.  With nothing listening no tally is opened.  ``__enter__`` returns
    :func:`enabled`: whether the query should size its work at all.  A
    class rather than a generator context manager: every query enters one
    or more, so its cost is per-query overhead.
    """

    __slots__ = ("_tally", "_token", "_registry")

    def __enter__(self) -> bool:
        registry = _registry
        if _tally.get() is not None or registry is NULL_REGISTRY:
            self._tally = None
            return enabled()
        self._tally = {}
        self._registry = registry
        self._token = _tally.set(self._tally)
        return True

    def __exit__(self, *exc) -> None:
        tally = self._tally
        if tally is None:
            return
        _tally.reset(self._token)
        for name, total in tally.items():
            self._registry.counter(name).inc(total)


@contextmanager
def suppressed(observed: bool = False) -> Iterator[None]:
    """Discard every record/observe inside the ``with`` body.

    Used around *probe* executions — e.g. the planner asking an encoding
    how many bitvectors an interval would touch, which some encodings
    answer by dry-running the evaluation — so estimation work never leaks
    into the counters that are supposed to measure real query work.

    The body runs under a tally that is thrown away.  With ``observed``
    each :func:`record` still adds to it, as in an observed query, so a
    probe timing one pays what that query pays.  Tallies are
    context-local, so suppressing in one thread leaves every other
    thread's counters alone.
    """
    token = _tally.set(_Discarded() if observed else _DISCARD)
    try:
        yield
    finally:
        _tally.reset(token)


def enabled() -> bool:
    """Whether any sink (real registry or active trace) is listening.

    Query entry points ask this (through :class:`_QueryTally`) before
    building the tallies that cost real work to compute, such as sizing
    every operand; plain increments just call :func:`record`, which is
    its own cheap no-op when nothing listens.
    """
    if _tally.get() is _DISCARD:
        return False
    return _registry is not NULL_REGISTRY or current_span() is not None


def record(name: str, value: int | float = 1) -> None:
    """Increment a counter on the registry and on the active span, if any.

    Inside a query's tally the registry's share waits for the query's end.
    """
    tally = _tally.get()
    if tally is _DISCARD:
        return
    if tally is not None:
        tally[name] = tally.get(name, 0) + value
    elif _registry is not NULL_REGISTRY:
        _registry.counter(name).inc(value)
    span = current_span()
    if span is not None:
        span.add_metric(name, value)


def observe(name: str, value: int | float) -> None:
    """Record one histogram observation on the installed registry."""
    if isinstance(_tally.get(), _Discarded):
        return
    registry = _registry
    if registry is not NULL_REGISTRY:
        registry.histogram(name).observe(value)
