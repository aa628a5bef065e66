"""Per-query span trees (:class:`QueryTrace`).

A trace records *where* a query spent its work: the engine opens a root
span, each access method opens child spans for its phases (one per query
dimension for bitmap interval evaluations, scan/refine for VA-files), and
every counter recorded through :func:`repro.observability.record` while a
span is open is attributed to that span.  The result is a tree whose leaf
counters explain the query the same way the paper's evaluation does —
bitvectors touched, words processed, approximations scanned — next to
ns-resolution per-span timings.

Tracing is opt-in and scoped: nothing in this module is active unless a
trace has been installed with :func:`activate` (the engine does that when
``execute(..., trace=True)`` is requested), so instrumented hot paths pay
only a single context-variable read when tracing is off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import ContextManager, Iterator

__all__ = [
    "Span",
    "QueryTrace",
    "activate",
    "current_span",
    "current_trace",
    "trace_span",
]


class Span:
    """One node of a query trace: a named, timed section with counters."""

    __slots__ = ("name", "attributes", "metrics", "children",
                 "start_ns", "end_ns")

    def __init__(self, name: str, **attributes):
        self.name = name
        self.attributes: dict[str, object] = dict(attributes)
        self.metrics: dict[str, int | float] = {}
        self.children: list[Span] = []
        self.start_ns: int = time.perf_counter_ns()
        self.end_ns: int | None = None

    @property
    def duration_ns(self) -> int | None:
        """Elapsed nanoseconds, or None while the span is still open."""
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def set(self, key: str, value) -> None:
        """Attach one attribute to this span."""
        self.attributes[key] = value

    def add_metric(self, name: str, value: int | float = 1) -> None:
        """Accumulate a counter increment onto this span."""
        self.metrics[name] = self.metrics.get(name, 0) + value

    def walk(self) -> Iterator[tuple[int, "Span"]]:
        """Yield ``(depth, span)`` pairs depth-first, this span at depth 0."""
        stack: list[tuple[int, Span]] = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(span.children):
                stack.append((depth + 1, child))

    def metric(self, name: str) -> int | float:
        """Sum of one counter over this span and all its descendants."""
        return sum(span.metrics.get(name, 0) for _, span in self.walk())

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (including self) with the given name."""
        return [span for _, span in self.walk() if span.name == name]

    def __repr__(self) -> str:
        dur = self.duration_ns
        timing = f", {dur / 1e6:.3f}ms" if dur is not None else ", open"
        return f"Span({self.name!r}, children={len(self.children)}{timing})"


class QueryTrace:
    """A span tree built while one query executes.

    The engine owns the root span; instrumented code opens nested spans via
    :func:`trace_span` (or :meth:`span` when it holds the trace directly).
    """

    __slots__ = ("root", "_stack")

    def __init__(self, name: str = "query", **attributes):
        self.root = Span(name, **attributes)
        self._stack: list[Span] = [self.root]

    @property
    def current(self) -> Span:
        """The innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Span]:
        """Open a child span of the current span for the ``with`` body."""
        span = Span(name, **attributes)
        self.current.children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def annotate(self, key: str, value) -> None:
        """Attach one attribute to the innermost open span."""
        self.current.set(key, value)

    def add(self, name: str, value: int | float = 1) -> None:
        """Accumulate a counter increment onto the innermost open span."""
        self.current.add_metric(name, value)

    def close(self) -> None:
        """Close the root span (idempotent)."""
        if self.root.end_ns is None:
            self.root.end_ns = time.perf_counter_ns()

    def metric(self, name: str) -> int | float:
        """Sum of one counter over the whole tree."""
        return self.root.metric(name)

    def find(self, name: str) -> list[Span]:
        """All spans in the tree with the given name."""
        return self.root.find(name)

    def format(self) -> str:
        """Render the tree as indented text, one span per line.

        Counters follow each span on indented continuation lines so wide
        spans stay readable; attributes render inline after the name.
        """
        lines = []
        for depth, span in self.root.walk():
            pad = "  " * depth
            dur = span.duration_ns
            timing = f" [{dur / 1e6:.3f}ms]" if dur is not None else ""
            attrs = ""
            if span.attributes:
                attrs = " {" + ", ".join(
                    f"{k}={v}" for k, v in span.attributes.items()
                ) + "}"
            lines.append(f"{pad}{span.name}{attrs}{timing}")
            for name in sorted(span.metrics):
                lines.append(f"{pad}  . {name} = {span.metrics[name]:g}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"QueryTrace(spans={sum(1 for _ in self.root.walk())})"


#: The trace the current query execution is populating, if any.
_ACTIVE: ContextVar[QueryTrace | None] = ContextVar(
    "repro_active_trace", default=None
)


def current_trace() -> QueryTrace | None:
    """The trace being populated right now, or None when tracing is off."""
    return _ACTIVE.get()


def current_span() -> Span | None:
    """The innermost open span of the active trace, if any."""
    trace = _ACTIVE.get()
    if trace is None:
        return None
    return trace.current


@contextmanager
def activate(trace: QueryTrace) -> Iterator[QueryTrace]:
    """Make ``trace`` the active trace for the ``with`` body."""
    token = _ACTIVE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)


#: What :func:`trace_span` hands out while no trace is active.
_NO_SPAN = nullcontext()


def trace_span(name: str, **attributes) -> ContextManager[Span | None]:
    """Open a span on the active trace; a no-op yielding None without one."""
    trace = _ACTIVE.get()
    if trace is None:
        return _NO_SPAN
    return trace.span(name, **attributes)
