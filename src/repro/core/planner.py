"""Cost-based index selection for the engine.

The paper's cost story is simple and explicit: bitmap query cost is the
number of bitvectors touched times their (compressed) size; VA-file cost is
one approximation scan per query dimension.  Every covering index gets an
estimate in those cost-model units (32-bit words / approximations
processed) — the currency the experiments report and ``explain`` prints —
and, beside it, a *predicted time*: the plan's work counted per
:class:`Work` term, times nanoseconds per unit measured where the process
runs, by running the attached index itself (:func:`unit_costs`).  The
engine picks the plan predicted fastest; when the fastest few are within
the measurement's own spread, the paper-unit items decide.

Estimates deliberately reuse each index's own introspection
(``bitmaps_for_interval``, size reports, the VA-file's refinement rule), so
the planner stays honest as encodings evolve, and the per-unit costs are
re-fitted rather than edited when a kernel or codec changes speed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro import forksafe
from repro.bitmap.base import BitmapIndex
from repro.bitvector.kernels import wah_decode
from repro.bitvector.wah import WahBitVector
from repro.errors import PlanningError
from repro.observability import activate, enabled, suppressed
from repro.observability import record as _obs_record
from repro.query.boolean import And, Atom, Not, Or
from repro.query.model import MissingSemantics, RangeQuery
from repro.vafile.vafile import VAFile


class Work(NamedTuple):
    """What one plan processes, counted per term its time is priced in.

    A bitmap plan reads stored operands and processes compressed words; a
    VA-file plan scans approximation codes and re-reads the boundary-bin
    records of a refinement pass.  The same tuple also carries nanoseconds
    *per unit* of each term (:attr:`UnitCosts.ns`).
    """

    #: Executions: the per-query overhead (set-up, id materialisation).
    queries: float = 0.0
    #: Stored bitvectors read as operands.
    operands: float = 0.0
    #: Bitmap cost-model words (the paper's currency for bitmaps).
    words: float = 0.0
    #: VA-file approximations scanned (the paper's currency for VA-files).
    codes: float = 0.0
    #: Records a VA-file refinement pass re-reads (n per refined dimension).
    refined: float = 0.0
    #: Stored words of operands no query has read yet: a WAH bitmap decodes
    #: on its first read and keeps the result, so only those pay a decode.
    decoded: float = 0.0

    def plus(self, other: "Work") -> "Work":
        """Termwise sum."""
        return Work(*(a + b for a, b in zip(self, other)))

    @property
    def items(self) -> float:
        """Paper cost-model items: words for bitmaps, codes for VA-files."""
        return self.words + self.codes


@dataclass(frozen=True, slots=True)
class UnitCosts:
    """Measured nanoseconds per unit of each :class:`Work` term."""

    ns: Work
    #: Relative run-to-run spread of the measurement (0.05 = 5 %).
    spread: float

    def predict(self, work: Work) -> float:
        """Predicted nanoseconds for ``work``."""
        return sum(ns * units for ns, units in zip(self.ns, work))

    def describe(self) -> str:
        """``56.3 µs/query + 14.6 ns/word ±4%``: the fitted non-zero terms."""
        parts = [
            f"{ns / 1e3:.3g} µs/{unit}" if ns >= 1e3 else f"{ns:.3g} ns/{unit}"
            for unit, ns in zip(_UNITS, self.ns)
            if ns
        ]
        return f"{' + '.join(parts) or 'unmeasurable'} ±{self.spread:.0%}"


#: What one unit of each :class:`Work` term is called.
_UNITS = ("query", "operand", "word", "code", "refined record", "word decoded")


@dataclass(frozen=True, slots=True)
class CostEstimate:
    """A planner estimate for serving one query with one index."""

    index_name: str
    kind: str
    #: Estimated cost-model items processed (the paper's units).
    items: float
    #: Human-readable explanation of the estimate.
    detail: str
    #: Predicted wall-clock nanoseconds from measured unit costs (lower is
    #: better).
    predicted_ns: float = 0.0
    #: The measurement's relative spread; predictions closer than this
    #: are a tie that ``items`` decides.
    spread: float = 0.0


def _covering_hint(available: Sequence[str] | None) -> str:
    """Render the covering-index part of an uncovered-attribute error."""
    if available is None:
        return ""
    if not available:
        return "; no attached index covers it"
    return f"; covering indexes available: {sorted(available)}"


def _result_words(index) -> int:
    """Words of one result-width bitvector: one 31-bit group per word."""
    return (index.num_records + 30) // 31


def estimate_bitmap_cost(
    index: BitmapIndex,
    query: RangeQuery,
    semantics: MissingSemantics,
    available: Sequence[str] | None = None,
) -> tuple[Work, str]:
    """The :class:`Work` a bitmap index does for ``query``, and its story.

    Bitvectors touched per interval come from the encoding's own
    ``bitmaps_for_interval``; each touched bitvector is costed at the
    attribute's average stored bitmap size (compressed words); ``decoded``
    is what :meth:`~repro.bitmap.base.BitmapIndex.undecoded_words` counts.
    ``available`` names the attached indexes that *do* cover the query, so
    an uncovered-attribute :class:`PlanningError` can tell the caller where
    to send the query instead.
    """
    report = {r.attribute: r for r in index.size_report().per_attribute}
    total_words = 0.0
    total_bitmaps = 0
    undecoded = 0.0
    for name, interval in query.items():
        attr_report = report.get(name)
        if attr_report is None:
            raise PlanningError(
                f"cannot cost a {index.encoding} bitmap plan: the index does "
                f"not cover query attribute {name!r} "
                f"(covers {sorted(report)})"
                f"{_covering_hint(available)}"
            )
        touched = index.bitmaps_for_interval(name, interval, semantics)
        if attr_report.num_bitmaps:
            avg_words = attr_report.compressed_bytes / 4 / attr_report.num_bitmaps
        else:
            avg_words = 0.0
        total_words += touched * avg_words
        total_bitmaps += touched
        undecoded += index.undecoded_words(name, interval, semantics)
    # The final AND chain costs roughly one result-sized pass per dimension.
    ands = max(0, query.dimensionality - 1)
    total_words += _result_words(index) * ands
    return Work(queries=1, operands=total_bitmaps, words=total_words,
                decoded=undecoded), (
        f"{total_bitmaps} bitvectors @ avg compressed size, "
        f"+{ands} result-width ANDs"
    )


def estimate_vafile_cost(
    vafile: VAFile,
    query: RangeQuery,
    semantics: MissingSemantics,
    available: Sequence[str] | None = None,
) -> tuple[Work, str]:
    """The :class:`Work` a VA-file does for ``query``, and its story."""
    uncovered = set(query.attributes) - set(vafile.attributes)
    if uncovered:
        raise PlanningError(
            f"cannot cost a VA-file plan: the file does not cover query "
            f"attributes {sorted(uncovered)} "
            f"(covers {sorted(vafile.attributes)})"
            f"{_covering_hint(available)}"
        )
    n = vafile.num_records
    refined = sum(
        1 for name, interval in query.items() if vafile.refines(name, interval)
    )
    work = Work(queries=1, codes=n * query.dimensionality, refined=n * refined)
    detail = f"{n} approximations x {query.dimensionality} dims"
    if refined:
        detail += f", {refined} of them refined"
    return work, detail


def _estimator(index):
    """The work estimator for ``index``'s access method; None: not costable."""
    if isinstance(index, BitmapIndex):
        return estimate_bitmap_cost
    if isinstance(index, VAFile):
        return estimate_vafile_cost
    return None


def _predicate_work(index, estimate, predicate, semantics, available):
    """A predicate's :class:`Work`: its atoms' intervals plus its combines.

    The tree runs once (one per-query overhead); each atom is priced as
    its own one-dimension interval under the semantics the evaluator
    gives it (``Not`` evaluates its child under the opposite bound); each
    combine — one per ``And`` / ``Or`` child after the first, one per
    ``Not`` — is one result-width pass: ⌈n/31⌉ words over bitvectors,
    n codes over a VA-file's record masks.
    """
    width = (
        Work(words=_result_words(index)) if isinstance(index, BitmapIndex)
        else Work(codes=index.num_records)
    )
    total = Work(queries=1)
    stack = [(predicate, semantics)]
    while stack:
        node, node_semantics = stack.pop()
        if isinstance(node, Atom):
            atom, _ = estimate(
                index, RangeQuery({node.attribute: node.interval}),
                node_semantics, available,
            )
            total = total.plus(atom._replace(queries=0))
        elif isinstance(node, (And, Or)):
            for _ in node.children[1:]:
                total = total.plus(width)
            stack.extend((child, node_semantics) for child in node.children)
        elif isinstance(node, Not):
            total = total.plus(width)
            stack.append((node.child, node_semantics.opposite))
    return total, "atoms + one result-width pass per combine"


def semantics_for_costing(semantics) -> MissingSemantics:
    """The single semantics to cost a plan under.

    A both-mode execution computes its pair in one pass whose work is
    essentially the possible bound's (the certain bound is one missing-
    bitmap adjustment away), so :data:`~repro.query.model.BOTH` is costed
    as ``IS_MATCH`` — the superset bound — and one plan serves both
    bounds.  Single-semantics requests cost as themselves.  Either way
    that is the widest bound the request asks for.
    """
    return semantics.bounds[-1]


def estimate_cost(
    attached,
    item,
    semantics: MissingSemantics,
    available: Sequence[str] | None = None,
) -> CostEstimate | None:
    """Cost estimate for one attached index, or None when not costable.

    ``item`` is a :class:`RangeQuery` or a predicate tree
    (:mod:`repro.query.boolean`).
    """
    index = attached.index
    estimate = _estimator(index)
    if estimate is None:
        return None
    if isinstance(item, RangeQuery):
        work, detail = estimate(index, item, semantics, available)
    else:
        work, detail = _predicate_work(
            index, estimate, item, semantics, available
        )
    costs = unit_costs(attached)
    return CostEstimate(
        index_name=attached.name,
        kind=attached.kind,
        items=work.items,
        detail=detail,
        predicted_ns=costs.predict(work),
        spread=costs.spread,
    )


def _by_prediction(estimate: CostEstimate) -> tuple[float, float]:
    return estimate.predicted_ns, estimate.items


def rank_plans(
    candidates,
    item,
    semantics: MissingSemantics,
) -> list[CostEstimate]:
    """Cost estimates for all costable covering indexes, fastest first.

    ``item`` is a :class:`RangeQuery` or a predicate tree.  Candidates that
    do not cover every attribute are skipped (an index that cannot serve
    the item has no plan to rank), so callers may pass an unfiltered index
    list without tripping the cost model's coverage check.
    """
    attributes = (
        set(item.attributes) if isinstance(item, RangeQuery)
        else item.attributes()
    )
    covering = [
        attached for attached in candidates
        if attributes <= set(attached.attributes)
    ]
    available = [getattr(c, "name", "?") for c in covering]
    estimates = []
    for attached in covering:
        estimate = estimate_cost(attached, item, semantics, available)
        if estimate is not None:
            estimates.append(estimate)
    estimates.sort(key=_by_prediction)
    _obs_record("planner.rankings")
    _obs_record("planner.plans_costed", len(estimates))
    return estimates


# -- measured unit costs -----------------------------------------------------

#: Query dimensionalities and interval shapes the probe times.
_PROBE_DIMENSIONS = (1, 2, 4, 8)
_PROBE_SHAPES = ("point", "prefix", "interior", "suffix")
#: Timed runs per probe query: the best is the sample, the second the noise.
_PROBE_RUNS = 3
#: Most stored bitmaps a calibration decodes to price a first read.
_DECODE_SAMPLE = 64


def _cardinality(index, attribute: str) -> int:
    if isinstance(index, BitmapIndex):
        return index.cardinality(attribute)
    return index.quantizer(attribute).cardinality


def _probe_interval(shape: str, cardinality: int) -> tuple[int, int]:
    half = max(1, cardinality // 2)
    if shape == "point":
        return (cardinality + 1) // 2, (cardinality + 1) // 2
    if shape == "prefix":
        return 1, half
    if shape == "interior":
        return max(1, cardinality // 4), max(1, 3 * cardinality // 4)
    return min(cardinality, half + 1), cardinality


def probe_queries(index) -> list[tuple[RangeQuery, MissingSemantics]]:
    """The fixed queries a calibration times on ``index``'s own attributes.

    Every shape at 1, 2, 4 and 8 dimensions (capped at the attribute
    count), attributes spread across the index, semantics alternating:
    enough variety in operands, words and codes per query to fit each
    :class:`Work` term apart.
    """
    attributes = index.attributes
    count = len(attributes)
    probes = []
    for dims in sorted({min(d, count) for d in _PROBE_DIMENSIONS}):
        step = count // dims
        for shape in _PROBE_SHAPES:
            first = len(probes)
            names = [attributes[(first + i * step) % count] for i in range(dims)]
            query = RangeQuery.from_bounds({
                name: _probe_interval(shape, _cardinality(index, name))
                for name in names
            })
            semantics = (
                MissingSemantics.IS_MATCH, MissingSemantics.NOT_MATCH
            )[first % 2]
            probes.append((query, semantics))
    return probes


def _fit(rows: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Non-negative least squares ``rows @ x ~ times``.

    Columns are scaled to unit maximum first (words and codes run to
    tens of thousands, queries to one); a term whose fitted cost comes out
    negative is dropped and the rest refitted, so every unit cost is
    physical.
    """
    scale = rows.max(axis=0)
    scale[scale == 0] = 1.0
    scaled = rows / scale
    active = list(range(rows.shape[1]))
    solution = np.zeros(rows.shape[1])
    while active:
        coef, *_ = np.linalg.lstsq(scaled[:, active], times, rcond=None)
        if (coef >= 0).all():
            solution[active] = coef
            break
        del active[int(np.argmin(coef))]
    return solution / scale


def _decode_ns_per_word(index) -> float:
    """Nanoseconds per stored word to decode ``index``'s WAH bitmaps: the
    kernel alone, best of three, over up to :data:`_DECODE_SAMPLE` stored
    bitmaps spread over the index (which keep nothing from it)."""
    if not isinstance(index, BitmapIndex):
        return 0.0
    stored = [vec for vec in index.stored_bitmaps() if isinstance(vec, WahBitVector)]
    sample = stored[::max(1, -(-len(stored) // _DECODE_SAMPLE))]
    runs = []
    for _ in range(_PROBE_RUNS):
        start = time.perf_counter_ns()
        for vec in sample:
            wah_decode(vec.words, vec.ngroups)
        runs.append(time.perf_counter_ns() - start)
    total = sum(vec.words32() for vec in sample)
    return min(runs) / total if total else 0.0


def calibrate(attached) -> UnitCosts:
    """Measure ``attached``'s unit costs by running its own query path.

    Each :func:`probe_queries` query runs ``execute_bound_ids`` best of
    three (so operands already decoded); the :class:`Work` its plan would
    be priced with is the row it is fitted against (see :func:`_fit`),
    all but ``decoded``, timed apart (:func:`_decode_ns_per_word`).  The
    spread is the median gap
    between each query's best and second-best run.  When a sink listens
    (:func:`~repro.observability.enabled`) each probe runs as an observed
    query does, sizing its work as it goes, since on a warm bitmap index
    that accounting costs about as much as the bitmap work itself.  Runs
    under :func:`~repro.observability.suppressed` and outside any trace,
    so no counter, histogram or span sees it.
    """
    index = attached.index
    estimate = _estimator(index)
    observed = enabled()
    rows, times, gaps = [], [], []
    with suppressed(observed), activate(None):
        for query, semantics in probe_queries(index):
            runs = []
            for _ in range(_PROBE_RUNS):
                start = time.perf_counter_ns()
                index.execute_bound_ids(query, semantics)
                runs.append(time.perf_counter_ns() - start)
            best, second = sorted(runs)[:2]
            rows.append(estimate(index, query, semantics)[0][:-1])
            times.append(best)
            gaps.append((second - best) / max(best, 1))
    fitted = _fit(np.array(rows, dtype=float), np.array(times, dtype=float))
    ns = Work(*fitted.tolist(), decoded=_decode_ns_per_word(index))
    return UnitCosts(ns=ns, spread=float(np.median(gaps)))


class _Calibrations:
    """Process-wide :class:`UnitCosts`, one per index kind, codec,
    power-of-two size class, and whether a sink listens.

    A probe at one row count cannot tell a per-query cost from a
    per-record one, so each power-of-two row-count class is measured
    apart.  Whether queries are observed is in the key too, since it
    decides whether they size their operands.
    """

    def __init__(self):
        self.measured: dict[tuple, UnitCosts] = {}
        self._lock = threading.Lock()
        forksafe.register(self)

    def _reset_after_fork(self) -> None:
        self._lock = threading.Lock()

    def get(self, attached) -> UnitCosts:
        index = attached.index
        key = (
            attached.kind,
            getattr(index, "codec", None),
            index.num_records.bit_length(),
            enabled(),
        )
        costs = self.measured.get(key)
        if costs is None:
            with self._lock:
                costs = self.measured.get(key)
                if costs is None:
                    costs = self.measured[key] = calibrate(attached)
        return costs


_CALIBRATIONS = _Calibrations()


def unit_costs(attached) -> UnitCosts:
    """The measured unit costs pricing ``attached``'s plans.

    Measured lazily, by :func:`calibrate`, the first time a plan in this
    process needs that key — never at build or load — then reused by every
    index sharing it (snapshots of one table size, rebuilt indexes).
    """
    return _CALIBRATIONS.get(attached)


def choose_cheapest(ranking: Sequence[CostEstimate]) -> CostEstimate:
    """The plan to run out of a non-empty ranking.

    The plan predicted fastest — unless others are predicted within the
    measurement spread of it; then the fewest paper-unit items among
    those decide, so the choice only moves on a gap beyond the noise.
    """
    fastest = min(ranking, key=_by_prediction)
    tied = [
        plan for plan in ranking
        if plan.predicted_ns
        <= fastest.predicted_ns * (1 + max(fastest.spread, plan.spread))
    ]
    return min(tied, key=lambda plan: (plan.items, plan.predicted_ns))


#: Kind -> rank among the covering indexes when none is costable: the
#: prior-work baselines have no cost model, so a fixed order picks.
_PREFERENCE = {kind: rank for rank, kind in enumerate((
    "mosaic", "rtree-sentinel", "gridfile", "bitstring",
))}


def choose_plan(covering, ranking: Sequence[CostEstimate]):
    """The one plan chooser: ``(chosen, ranking)``.

    ``covering`` is the covering indexes, ``ranking`` their
    :func:`rank_plans` estimates.  The plan :func:`choose_cheapest` picks,
    else the baselines' fixed order, else None (scan).
    """
    if ranking:
        cheapest = choose_cheapest(ranking).index_name
        return next(ix for ix in covering if ix.name == cheapest), ranking
    chosen = min(
        covering,
        key=lambda ix: _PREFERENCE.get(ix.kind, len(_PREFERENCE)),
        default=None,
    )
    return chosen, ranking
