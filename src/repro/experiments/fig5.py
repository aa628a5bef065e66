"""Figure 5: query execution time for BEE, BRE, and VA-file.

Three sweeps at fixed 1% global selectivity, 100 queries each (paper setup):

* **5(a)** — cardinality in {2, 5, 10, 20, 50, 100}; 10% missing; 8-dim keys.
* **5(b)** — percent missing in {10..50}; cardinality 10; 8-dim keys.
* **5(c)** — query dimensionality in {2..16}; cardinality 10; 30% missing.

For every technique we record wall-clock milliseconds *and* the cost-model
work (32-bit words processed, plus bitvectors touched per dimension for the
bitmap encodings).  The paper explains all its trends through the latter:
BEE's cost tracks attribute selectivity times cardinality, BRE is bounded by
1-3 bitvectors per dimension, the VA-file scans ``n`` approximations per
dimension regardless of parameters.

Queries run under missing-is-a-match by default; the paper reports that the
two semantics produce near-identical graphs (we verify that claim in the
benchmark suite by running both).

A fourth timed pass answers the paper's question for the engine: every
query runs on the index ``choose_index`` picks (plans made before the
pass), and ``planner_over_best`` is that time over the fastest of the three
techniques — 1.0 when the planner always picks the fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.bitvector.ops import OpCounter
from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable
from repro.experiments.harness import ExperimentResult
from repro.query.model import MissingSemantics
from repro.query.workload import WorkloadGenerator
from repro.vafile.vafile import VAFile

#: Timed passes per technique and cell; the best one is reported.
_PASSES = 3

_COLUMNS = [
    "bee_ms",
    "bre_ms",
    "va_ms",
    "bee_words",
    "bre_words",
    "va_words",
    "bee_bitmaps",
    "bre_bitmaps",
    "bre_over_va",
    "planner_ms",
    "planner_over_best",
]


@dataclass(frozen=True, slots=True)
class Fig5Cell:
    """Measured cost of one technique trio on one parameter setting."""

    bee_ms: float
    bre_ms: float
    va_ms: float
    bee_words: int
    bre_words: int
    va_words: int
    bee_bitmaps: int
    bre_bitmaps: int
    #: Every query on the index the engine's planner picks for it.
    planner_ms: float

    @property
    def bre_over_va(self) -> float:
        """BRE wall-clock over the VA-file's — the ordering Fig. 5 is about."""
        return self.bre_ms / self.va_ms

    @property
    def planner_over_best(self) -> float:
        """The planner's picks over the fastest single technique (>= ~1)."""
        return self.planner_ms / min(self.bee_ms, self.bre_ms, self.va_ms)


def _best_passes(runs: list) -> list[float]:
    """Best wall-clock ms of each callable in ``runs``.

    Every callable does identical work on every pass, so its minimum over
    ``_PASSES`` filters scheduler noise out of the ``*_ms`` columns.  The
    passes go round-robin over the techniques rather than technique by
    technique, so a slow spell of the machine costs each of them one pass
    instead of costing one of them all: single-shot timing moved the
    ``bre_over_va`` ratio the regression gate guards by up to +60 % between
    runs, this by about +25 %.
    """
    best = [float("inf")] * len(runs)
    for _ in range(_PASSES):
        for position, run in enumerate(runs):
            start = time.perf_counter()
            run()
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            best[position] = min(best[position], elapsed_ms)
    return best


def _measure_cell(
    table: IncompleteTable,
    attributes: list[str],
    global_selectivity: float,
    num_queries: int,
    semantics: MissingSemantics,
    seed: int,
    codec: str = "wah",
) -> Fig5Cell:
    """Time uncounted passes; take the paper's counts from one more.

    The timed passes run uncounted, the way the planner's calibration and
    a served query run, because on a warm index tallying the counts costs
    about as much as the bitmap work itself.  One untimed counted pass per
    technique, run before planning, yields the ``*_words`` /
    ``*_bitmaps`` columns.
    """
    workload = WorkloadGenerator(table, seed=seed)
    queries = workload.workload(
        attributes, global_selectivity, num_queries, semantics
    )
    bee = EqualityEncodedBitmapIndex(table, attributes, codec=codec)
    bre = RangeEncodedBitmapIndex(table, attributes, codec=codec)
    va = VAFile(table, attributes)

    def bee_pass(counter: OpCounter | None = None) -> OpCounter | None:
        for query in queries:
            bee.execute(query, semantics, counter)
        return counter

    def bre_pass(counter: OpCounter | None = None) -> OpCounter | None:
        for query in queries:
            bre.execute(query, semantics, counter)
        return counter

    def va_pass(counter: OpCounter | None = None) -> OpCounter | None:
        for query in queries:
            va.execute_ids(query, semantics, None, counter)
        return counter

    # Counted first: that decodes every bitmap the queries read, so the
    # planner prices the same warm indexes the timed passes run on.
    bee_counter = bee_pass(OpCounter())
    bre_counter = bre_pass(OpCounter())
    va_counter = va_pass(OpCounter())

    db = IncompleteDatabase(table)
    for kind, index in (("bee", bee), ("bre", bre), ("vafile", va)):
        db.attach_index(kind, kind, index, attributes)
    picked = [(db.choose_index(query, semantics).name, query) for query in queries]

    def planner_pass() -> None:
        # Each pick runs exactly as its own technique's pass runs it.
        for name, query in picked:
            if name == "vafile":
                va.execute_ids(query, semantics)
            else:
                (bee if name == "bee" else bre).execute(query, semantics)

    bee_ms, bre_ms, va_ms, planner_ms = _best_passes(
        [bee_pass, bre_pass, va_pass, planner_pass]
    )

    return Fig5Cell(
        bee_ms=bee_ms,
        bre_ms=bre_ms,
        va_ms=va_ms,
        bee_words=bee_counter.words_processed,
        bre_words=bre_counter.words_processed,
        va_words=va_counter.words_processed,
        bee_bitmaps=bee_counter.bitmaps_touched,
        bre_bitmaps=bre_counter.bitmaps_touched,
        planner_ms=planner_ms,
    )


def _uniform_query_table(
    num_records: int, dimensionality: int, cardinality: int,
    missing_fraction: float, seed: int,
) -> tuple[IncompleteTable, list[str]]:
    names = [f"q{i}" for i in range(dimensionality)]
    table = generate_uniform_table(
        num_records,
        {name: cardinality for name in names},
        {name: missing_fraction for name in names},
        seed=seed,
    )
    return table, names


def run_fig5a(
    num_records: int = 100_000,
    cardinalities: tuple[int, ...] = (2, 5, 10, 20, 50, 100),
    missing_pct: int = 10,
    dimensionality: int = 8,
    global_selectivity: float = 0.01,
    num_queries: int = 100,
    semantics: MissingSemantics = MissingSemantics.IS_MATCH,
    seed: int = 50,
) -> ExperimentResult:
    """Query execution time versus attribute cardinality."""
    result = ExperimentResult(
        title=(
            f"Fig. 5(a) - query time vs cardinality ({missing_pct}% missing, "
            f"k={dimensionality}, GS={global_selectivity:.0%}, "
            f"{num_queries} queries, n={num_records})"
        ),
        x_label="cardinality",
        columns=_COLUMNS,
    )
    for cardinality in cardinalities:
        table, names = _uniform_query_table(
            num_records, dimensionality, cardinality, missing_pct / 100.0,
            seed + cardinality,
        )
        cell = _measure_cell(
            table, names, global_selectivity, num_queries, semantics,
            seed + cardinality,
        )
        result.add_row(cardinality, *_cell_values(cell))
    result.notes.append(
        "expect: BEE cost grows with cardinality; BRE and VA-file ~flat; "
        "BRE cheapest in cost-model words"
    )
    return result


def run_fig5b(
    num_records: int = 100_000,
    cardinality: int = 10,
    missing_pcts: tuple[int, ...] = (10, 20, 30, 40, 50),
    dimensionality: int = 8,
    global_selectivity: float = 0.01,
    num_queries: int = 100,
    semantics: MissingSemantics = MissingSemantics.IS_MATCH,
    seed: int = 51,
) -> ExperimentResult:
    """Query execution time versus percent missing data."""
    result = ExperimentResult(
        title=(
            f"Fig. 5(b) - query time vs % missing (cardinality {cardinality}, "
            f"k={dimensionality}, GS={global_selectivity:.0%}, "
            f"{num_queries} queries, n={num_records})"
        ),
        x_label="% missing",
        columns=_COLUMNS,
    )
    for pct in missing_pcts:
        table, names = _uniform_query_table(
            num_records, dimensionality, cardinality, pct / 100.0, seed + pct
        )
        cell = _measure_cell(
            table, names, global_selectivity, num_queries, semantics, seed + pct
        )
        result.add_row(pct, *_cell_values(cell))
    result.notes.append(
        "expect: BEE cost falls as missing grows (fixed GS lowers attribute "
        "selectivity); BRE and VA-file ~flat"
    )
    return result


def run_fig5c(
    num_records: int = 100_000,
    cardinality: int = 10,
    missing_pct: int = 30,
    dimensionalities: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14, 16),
    global_selectivity: float = 0.01,
    num_queries: int = 100,
    semantics: MissingSemantics = MissingSemantics.IS_MATCH,
    seed: int = 52,
) -> ExperimentResult:
    """Query execution time versus query dimensionality."""
    result = ExperimentResult(
        title=(
            f"Fig. 5(c) - query time vs dimensionality (cardinality "
            f"{cardinality}, {missing_pct}% missing, "
            f"GS={global_selectivity:.0%}, {num_queries} queries, "
            f"n={num_records})"
        ),
        x_label="k",
        columns=_COLUMNS,
    )
    for k in dimensionalities:
        table, names = _uniform_query_table(
            num_records, k, cardinality, missing_pct / 100.0, seed + k
        )
        cell = _measure_cell(
            table, names, global_selectivity, num_queries, semantics, seed + k
        )
        result.add_row(k, *_cell_values(cell))
    result.notes.append(
        "expect: all linear in k; BRE slope smallest, BEE slope largest"
    )
    return result


def _cell_values(cell: Fig5Cell) -> tuple:
    return (
        cell.bee_ms,
        cell.bre_ms,
        cell.va_ms,
        cell.bee_words,
        cell.bre_words,
        cell.va_words,
        cell.bee_bitmaps,
        cell.bre_bitmaps,
        cell.bre_over_va,
        cell.planner_ms,
        cell.planner_over_best,
    )
