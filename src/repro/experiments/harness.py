"""Shared experiment machinery: timing, result series, text rendering.

Every per-figure driver in this package produces an
:class:`ExperimentResult` — a labelled table with one row per x-value (the
swept parameter) and one column per metric/technique — which the benchmark
suite prints so the reproduced series can be compared against the paper's
plots by eye, and EXPERIMENTS.md can record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.observability import MetricsRegistry, MetricsSnapshot, use_registry
from repro.query.model import MissingSemantics, RangeQuery


def time_queries(
    execute: Callable[[RangeQuery], object],
    queries: Sequence[RangeQuery],
    repeats: int = 1,
) -> float:
    """Wall-clock milliseconds to run all ``queries`` through ``execute``.

    With ``repeats > 1`` the whole batch runs that many times and the best
    (minimum) pass is reported, which filters out scheduler noise and cache
    warm-up — the usual best-of-N benchmarking discipline.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best_ns: int | None = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for query in queries:
            execute(query)
        elapsed = time.perf_counter_ns() - start
        if best_ns is None or elapsed < best_ns:
            best_ns = elapsed
    return best_ns / 1e6


def time_batch(run: Callable[[], object], repeats: int = 1) -> float:
    """Best-of-N wall-clock milliseconds for one whole-workload callable.

    The batch counterpart of :func:`time_queries`: ``run`` executes the
    entire workload itself (e.g. ``db.execute_batch(queries)``), so warm-up
    effects inside the batch — stored bitmaps decoded on the first pass —
    are part of what is measured, and best-of-N only filters scheduler
    noise.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best_ns: int | None = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        run()
        elapsed = time.perf_counter_ns() - start
        if best_ns is None or elapsed < best_ns:
            best_ns = elapsed
    return best_ns / 1e6


def metered(run: Callable[[], object]) -> tuple[object, MetricsSnapshot]:
    """Run ``run`` under a fresh metrics registry; return (result, snapshot).

    This is how experiment drivers put observability counters into
    :class:`ExperimentResult` rows: run the workload metered, then pull the
    counters of interest off the snapshot as extra columns::

        ids, metrics = metered(lambda: index.execute_ids(query, semantics))
        result.add_row(x, ms, metrics.counters.get("wah.words_decoded", 0))
    """
    registry = MetricsRegistry()
    with use_registry(registry):
        value = run()
    return value, registry.snapshot()


@dataclass
class ExperimentResult:
    """A labelled series table: one row per swept x value."""

    title: str
    x_label: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, x, *values) -> None:
        """Append one row; value count must match ``columns``."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append((x, *values))

    def column(self, name: str) -> list:
        """All values of one named column, in row order."""
        idx = self.columns.index(name) + 1
        return [row[idx] for row in self.rows]

    def xs(self) -> list:
        """The swept x values, in row order."""
        return [row[0] for row in self.rows]

    def format(self) -> str:
        """Render as an aligned text table with title and notes."""
        headers = [self.x_label, *self.columns]
        body = [
            [_fmt(cell) for cell in row]
            for row in self.rows
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def semantics_pair() -> Iterable[MissingSemantics]:
    """Both query semantics, IS_MATCH first (the one the paper plots)."""
    return (MissingSemantics.IS_MATCH, MissingSemantics.NOT_MATCH)
