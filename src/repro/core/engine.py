"""The :class:`IncompleteDatabase` facade: one table, many indexes.

This is the library's top-level entry point.  It owns an
:class:`~repro.dataset.table.IncompleteTable`, lets the caller attach any of
the access methods implemented in this package under a name, executes
queries under either missing-data semantics through a uniform interface, and
can explain/compare plans.

Every access method answers with exactly the same record-id set (verified by
the test suite against the brute-force oracle); they differ in index size
and the work done per query, which is what the paper studies.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro import forksafe
from repro import observability as obs
from repro.baselines.bitstring import BitstringAugmentedIndex
from repro.baselines.gridfile import GridFileIndex
from repro.baselines.mosaic import MosaicIndex
from repro.baselines.sentinel_rtree import SentinelRTreeIndex
from repro.baselines.seqscan import SequentialScan
from repro.bitmap.base import BitmapIndex
from repro.bitmap.bitsliced import BitSlicedIndex
from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.interval_encoded import IntervalEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.bitvector.ops import OpCounter
from repro.core.cache import DEFAULT_CACHE_BYTES, CacheStats, SubResultCache
from repro.core.planner import (
    choose_plan,
    plan_batch,
    rank_plans,
    semantics_for_costing,
    unit_costs,
)
from repro.core.statistics import TableStatistics
from repro.core.sync import ReadWriteLock
from repro.dataset.table import IncompleteTable
from repro.errors import QueryError, ReproError
from repro.observability.metrics import _query_tally
from repro.query.boolean import Predicate
from repro.query.model import (
    BOTH,
    MissingSemantics,
    RangeQuery,
    ThreeValued,
    resolve_semantics,
)
from repro.vafile.vafile import VAFile

#: Index kind -> builder.  Builders take (table, attributes, **options).
_BUILDERS: dict[str, Callable] = {
    "bee": lambda table, attributes, **opts: EqualityEncodedBitmapIndex(
        table, attributes, **opts
    ),
    "bre": lambda table, attributes, **opts: RangeEncodedBitmapIndex(
        table, attributes, **opts
    ),
    "bie": lambda table, attributes, **opts: IntervalEncodedBitmapIndex(
        table, attributes, **opts
    ),
    "bsl": lambda table, attributes, **opts: BitSlicedIndex(
        table, attributes, **opts
    ),
    "vafile": lambda table, attributes, **opts: VAFile(table, attributes, **opts),
    "mosaic": lambda table, attributes, **opts: MosaicIndex(
        table, attributes, **opts
    ),
    "rtree-sentinel": lambda table, attributes, **opts: SentinelRTreeIndex(
        table, attributes, **opts
    ),
    "bitstring": lambda table, attributes, **opts: BitstringAugmentedIndex(
        table, attributes, **opts
    ),
    "gridfile": lambda table, attributes, **opts: GridFileIndex(
        table, attributes, **opts
    ),
}


@dataclass(frozen=True, slots=True)
class AttachedIndex:
    """An index registered with an :class:`IncompleteDatabase`."""

    name: str
    kind: str
    index: object
    attributes: tuple[str, ...]
    #: Constructor options the index was built with (``codec=``, ``bits=``,
    #: ...).  Kept so writer-path mutations can rebuild the index faithfully
    #: over a new table; empty for indexes attached without them.
    options: dict = field(default_factory=dict)

    def covers(self, query: RangeQuery) -> bool:
        """Whether every query attribute is indexed by this index."""
        return set(query.attributes) <= set(self.attributes)


@dataclass(frozen=True, slots=True)
class ShardReportSlice:
    """One shard's contribution to a scatter-gather answer."""

    shard_id: int
    #: True when the shard was skipped by statistics-based pruning.
    pruned: bool
    #: Match count of the widest bound (every other bound is a subset).
    num_matches: int
    elapsed_ns: int


@dataclass
class QueryReport:
    """Outcome of one query execution, at any tier and under any semantics.

    The answer is ``bound_ids``: one ascending id array per bound the
    semantics asked for (``semantics.bounds``, narrowest first).  A single
    semantics reads it through ``record_ids`` / ``num_matches``;
    ``semantics="both"`` through ``certain_ids`` (rows that match whatever
    the missing values turn out to be) and ``possible_ids`` (rows some
    completion of the missing values admits — a superset for conjunctive
    range queries).  Reading the view the semantics did not ask for raises
    :class:`~repro.errors.QueryError`.
    """

    index_name: str
    kind: str
    bound_ids: tuple[np.ndarray, ...] = field(repr=False)
    #: One slice per shard for a scatter-gather answer; empty unsharded.
    per_shard: tuple[ShardReportSlice, ...] = field(default=(), repr=False)
    #: Span tree populated when the query ran with ``trace=True``.
    trace: obs.QueryTrace | None = field(default=None, repr=False)
    #: Wall-clock execution time (engine: planning excluded).
    elapsed_ns: int | None = None

    def _single(self, name: str) -> np.ndarray:
        if len(self.bound_ids) != 1:
            raise QueryError(
                f"{name} needs a single semantics ('is_match' or "
                f"'not_match'); this report answers semantics='both' — "
                f"read certain_ids / possible_ids"
            )
        return self.bound_ids[0]

    def _pair(self, name: str) -> tuple[np.ndarray, ...]:
        if len(self.bound_ids) != 2:
            raise QueryError(
                f"{name} needs semantics='both'; this report answers a "
                f"single semantics — read record_ids"
            )
        return self.bound_ids

    @property
    def record_ids(self) -> np.ndarray:
        """The matching ids of a single-semantics answer."""
        return self._single("record_ids")

    @property
    def num_matches(self) -> int:
        """Number of matching records of a single-semantics answer."""
        return len(self._single("num_matches"))

    @property
    def certain_ids(self) -> np.ndarray:
        """Ids certain to match (``semantics="both"``)."""
        return self._pair("certain_ids")[0]

    @property
    def possible_ids(self) -> np.ndarray:
        """Ids that possibly match (``semantics="both"``)."""
        return self._pair("possible_ids")[1]

    @property
    def num_certain(self) -> int:
        """Number of certain matches."""
        return len(self._pair("num_certain")[0])

    @property
    def num_possible(self) -> int:
        """Number of possible matches."""
        return len(self._pair("num_possible")[1])

    @property
    def possible_only_ids(self) -> np.ndarray:
        """Rows that are possible but not certain matches."""
        certain_ids, possible_ids = self._pair("possible_only_ids")
        return np.setdiff1d(possible_ids, certain_ids)

    @property
    def num_pruned(self) -> int:
        """How many shards the planner skipped outright."""
        return sum(1 for s in self.per_shard if s.pruned)

    @property
    def skew(self) -> float:
        """Max over mean executed-shard latency (1.0 = perfectly even)."""
        executed = [s.elapsed_ns for s in self.per_shard if not s.pruned]
        if not executed:
            return 0.0
        mean = sum(executed) / len(executed)
        if mean == 0:
            return 0.0
        return max(executed) / mean


#: What a trace root calls each bound's match count, by answer arity.
_BOUND_LABELS = {1: ("matches",), 2: ("certain", "possible")}


@dataclass
class RankedReport:
    """Outcome of a probabilistic (ranked) query execution.

    Certain matches carry probability 1.0; each possible-but-not-certain
    row's probability is the chance an imputation of its missing values —
    drawn from the attribute's observed value distribution — satisfies the
    query.  Rows are ordered by descending probability.
    """

    index_name: str
    kind: str
    record_ids: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)
    #: How many of the ranked rows are certain matches (probability 1.0).
    num_certain: int = 0

    @property
    def num_matches(self) -> int:
        """Number of ranked rows returned."""
        return len(self.record_ids)


def rank_both_bounds(
    rows_of: Callable[[np.ndarray], IncompleteTable],
    statistics,
    query: RangeQuery,
    certain_ids,
    possible_ids,
    threshold: float = 0.0,
    limit: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Turn a (certain, possible) answer pair into a ranked answer.

    The scoring half of ``execute_ranked``: certain rows score 1.0; each
    possible-only row scores the product, over
    the query attributes where it is missing, of the chance an imputation
    from the attribute's observed value distribution lands in the interval
    (attribute-independent, the paper's GS assumption), read through
    ``rows_of(ids)`` (those rows, in id order).  Returns
    ``(record_ids, probabilities, num_certain)`` with certain rows first
    (id order) and scored rows by descending probability, thresholded and
    capped.
    """
    if not 0.0 <= threshold <= 1.0:
        raise QueryError(f"threshold must be within [0, 1], got {threshold}")
    if limit is not None and limit < 0:
        raise QueryError(f"limit must be >= 0, got {limit}")
    certain = np.asarray(certain_ids, dtype=np.int64)
    maybe = np.setdiff1d(np.asarray(possible_ids, dtype=np.int64), certain)
    rows = rows_of(maybe)
    probs = np.ones(len(maybe), dtype=float)
    for name, interval in query.items():
        column = rows.column(name)
        attr_prob = statistics.attribute(name).present_interval_probability(
            interval
        )
        probs *= np.where(column == 0, attr_prob, 1.0)
    keep = probs >= threshold
    maybe, probs = maybe[keep], probs[keep]
    # Certain rows first (probability 1.0, id order), then the scored rows
    # by descending probability with id as the tiebreak.
    order = np.lexsort((maybe, -probs))
    ids = np.concatenate([certain, maybe[order]])
    probabilities = np.concatenate(
        [np.ones(len(certain), dtype=float), probs[order]]
    )
    num_certain = len(certain)
    if limit is not None:
        ids = ids[:limit]
        probabilities = probabilities[:limit]
        num_certain = min(num_certain, limit)
    return ids, probabilities, num_certain


def _as_query(query) -> RangeQuery:
    """The one coercion every public entry point takes its query through."""
    if isinstance(query, RangeQuery):
        return query
    if isinstance(query, Mapping):
        return RangeQuery.from_bounds(query)
    raise QueryError(
        f"expected a RangeQuery or an {{attribute: (lo, hi)}} mapping, "
        f"got {type(query).__name__}"
    )


#: Plans memoized per database before the memo starts over.
_PLAN_MEMO_LIMIT = 4096


class _QuerySurface:
    """What an engine and a sharded database say once.

    A database is N >= 1 *partitions*, each an :class:`IncompleteDatabase`
    holding the same index set over its own rows; an engine is its own
    single partition.  A subclass provides ``num_records``, ``table``,
    ``statistics``, ``_rows`` (rows by ascending id), ``_partitions``,
    ``_plan_memo`` (a dict it clears whenever its index set changes) and
    ``execute``; the registry view, planning, the estimates,
    the convenience queries, ``explain`` and ``summary`` are defined here
    over those, so a sharded database adds row ranges, prune, scatter and
    merge and nothing else.
    """

    _statistics = None
    _plan_memo: dict

    def _read_fence(self):
        """Held by :meth:`_plan` so no plan is memoized across a DDL swap.

        DDL is the one change a database sees while queries run (its rows
        never change), and an engine's DDL is what the fence orders, so
        only an engine overrides this with a real one.
        """
        return nullcontext()

    @property
    def schema(self):
        """The table schema (every partition shares it)."""
        return self._partitions[0].table.schema

    def estimate_count(
        self,
        query: RangeQuery | Mapping[str, tuple[int, int]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
    ) -> int:
        """Estimated matches without executing (GS product estimator)."""
        return self.statistics.estimate_count(_as_query(query), semantics)

    @property
    def index_names(self) -> tuple[str, ...]:
        """Names of attached indexes, in attachment order."""
        return tuple(self._partitions[0]._indexes)

    def cache_stats(self) -> CacheStats:
        """Sub-result cache tallies, summed over partitions."""
        totals = [part._cache.stats() for part in self._partitions]
        return CacheStats(
            hits=sum(s.hits for s in totals),
            misses=sum(s.misses for s in totals),
            stores=sum(s.stores for s in totals),
            evictions=sum(s.evictions for s in totals),
            invalidations=sum(s.invalidations for s in totals),
            entries=sum(s.entries for s in totals),
            bytes=sum(s.bytes for s in totals),
        )

    def invalidate_cache(self, index_name: str | None = None) -> int:
        """Drop cached sub-results (all, or one index's); returns the count.

        DDL already drops the entries of the index it replaces or detaches,
        under the lock every query holds; this is the explicit hatch for
        anything the engine cannot see.
        """
        return sum(
            part._cache.invalidate(index_name) for part in self._partitions
        )

    def _forced_index(self, using: str, attributes) -> AttachedIndex:
        """The index ``using=`` names, checked to cover ``attributes``."""
        chosen = self._partitions[0].get_index(using)
        uncovered = set(attributes) - set(chosen.attributes)
        if uncovered:
            raise QueryError(
                f"index {using!r} does not cover attributes "
                f"{sorted(uncovered)}"
            )
        return chosen

    def choose_index(
        self,
        query: RangeQuery | Mapping[str, tuple[int, int]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
    ) -> AttachedIndex | None:
        """The index that will serve ``query``; None means sequential scan.

        Covering indexes with a cost model (bitmaps, VA-files) compete on
        predicted time, summed over partitions (see
        :func:`repro.core.planner.choose_plan`); if none is costable, the
        fixed order MOSAIC > R-tree > grid file > bitstring decides.
        On a sharded database the entry returned is the first shard's:
        name, kind, attributes and options are the same on every shard.
        """
        return self._plan(_as_query(query), resolve_semantics(semantics))[0]

    def _covering(self, item) -> list[AttachedIndex]:
        """The attached indexes that can serve a range query or predicate.

        Only bitmap indexes and VA-files evaluate predicate trees.
        """
        indexes = self._partitions[0]._indexes.values()
        if isinstance(item, RangeQuery):
            return [ix for ix in indexes if ix.covers(item)]
        attributes = item.attributes()
        return [
            ix for ix in indexes
            if attributes <= set(ix.attributes)
            and isinstance(ix.index, (BitmapIndex, VAFile))
        ]

    def _plan(self, item, semantics) -> tuple:
        """``(chosen, ranking, per-partition estimates of chosen)``.

        ``item`` is a :class:`RangeQuery` or a predicate; ``chosen`` None
        is the scan fallback.  Every partition ranks its own covering
        indexes at its own size, and the one chooser
        (:func:`~repro.core.planner.choose_plan`) sums them.  Memoized per
        ``(item, semantics)`` in ``_plan_memo`` until the index set or the
        rows change.
        """
        key = (item, semantics)
        with self._read_fence():
            plan = self._plan_memo.get(key)
            if plan is not None:
                return plan
            covering = self._covering(item)
            costing = semantics_for_costing(semantics)
            rankings = [
                rank_plans(
                    [part.get_index(ix.name) for ix in covering], item, costing
                )
                for part in self._partitions
            ] if covering else []
            chosen, ranking = choose_plan(covering, rankings)
            if chosen is None:
                estimates = [None] * len(self._partitions)
            else:
                estimates = [
                    next((p for p in plans if p.index_name == chosen.name),
                         None)
                    for plans in rankings
                ]
            plan = (chosen, ranking, estimates)
            if len(self._plan_memo) >= _PLAN_MEMO_LIMIT:
                self._plan_memo.clear()
            self._plan_memo[key] = plan
        return plan

    def _resolve_plan(self, item, semantics, using: str | None) -> tuple:
        """The ``(chosen, forced, per-partition estimates)`` an item runs on.

        ``using`` forces a covering index (no estimates); a predicate
        forced onto an index with no tree evaluator runs as a ground-truth
        scan (``chosen`` None).  Anything but a :class:`RangeQuery` must be
        a :class:`~repro.query.boolean.Predicate`.
        """
        if not isinstance(item, (RangeQuery, Predicate)):
            raise QueryError(
                f"expected a Predicate, got {type(item).__name__}"
            )
        if using is None:
            chosen, _, estimates = self._plan(item, semantics)
            return chosen, False, estimates
        if isinstance(item, RangeQuery):
            chosen = self._forced_index(using, item.attributes)
        else:
            chosen = self._forced_index(using, item.attributes())
            if not isinstance(chosen.index, (BitmapIndex, VAFile)):
                chosen = None
        return chosen, True, [None] * len(self._partitions)

    def _shard_lines(self, query=None, costing=None) -> list[str]:
        """Lines ``explain`` / ``summary`` add when there are shards."""
        return []

    def explain(
        self,
        query: RangeQuery | Mapping[str, tuple[int, int]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        analyze: bool = False,
    ) -> str:
        """Human-readable plan description for a query, with costs.

        With ``analyze=True`` the query is actually executed (with tracing
        on) and the rendered span tree — timings plus the counters each
        access method recorded — is appended to the plan, in the spirit of
        ``EXPLAIN ANALYZE``.

        ``semantics="both"`` explains the one-pass pair execution: costing
        runs under the possible bound (which dominates the pair's work)
        and the single chosen plan serves both bounds.  A sharded database
        adds its shard count, executor and pruning decisions; plan costs
        are then sums over shards.
        """
        query = _as_query(query)
        semantics = resolve_semantics(semantics)
        costing = semantics_for_costing(semantics)
        chosen, plans, _ = self._plan(query, semantics)
        estimated = [
            self.statistics.estimate_count(query, bound)
            for bound in semantics.bounds
        ]
        lines = [
            f"query: {query!r}",
            f"semantics: {semantics.value}",
        ]
        if semantics is BOTH:
            lines.append(
                f"estimated matches: {estimated[0]} certain .. "
                f"{estimated[1]} possible"
            )
            lines.append(
                "bounds: one plan, costed under is_match (superset bound)"
            )
        else:
            lines.append(f"estimated matches: {estimated[0]}")
        lines.extend(self._shard_lines(query, costing))
        if chosen is None:
            lines.append("plan: sequential scan (no covering index)")
        else:
            lines.append(f"plan: index {chosen.name!r} ({chosen.kind})")
            if chosen.kind in ("bee", "bre", "bie", "bsl"):
                total = sum(
                    chosen.index.bitmaps_for_interval(name, interval, costing)
                    for name, interval in query.items()
                )
                lines.append(f"bitvectors used: {total}")
            for plan in plans:
                marker = "->" if plan.index_name == chosen.name else "  "
                lines.append(
                    f"{marker} {plan.index_name} ({plan.kind}): "
                    f"~{plan.items:,.0f} items, "
                    f"~{plan.predicted_ns / 1e3:,.1f} µs predicted "
                    f"({plan.detail})"
                )
            if plans:
                first = self._partitions[0]
                lines.append("unit costs (measured): " + "; ".join(
                    f"{plan.index_name} "
                    f"{unit_costs(first.get_index(plan.index_name)).describe()}"
                    for plan in plans
                ))
        if analyze:
            report = self.execute(query, semantics, trace=True)
            lines.append("")
            lines.append(report.trace.format())
        return "\n".join(lines)

    def query(
        self,
        query: RangeQuery | Mapping[str, tuple[int, int]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
    ) -> QueryReport:
        """Alias of :meth:`execute` without tracing (kept for callers)."""
        return self.execute(query, semantics, using)

    def count(
        self,
        query: RangeQuery | Mapping[str, tuple[int, int]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
    ):
        """Number of records matching a query.

        With ``semantics="both"`` returns the ``(certain, possible)``
        count pair instead of a single int.
        """
        counts = tuple(
            len(ids) for ids in self.execute(query, semantics, using).bound_ids
        )
        return counts[0] if len(counts) == 1 else counts

    def fetch(
        self,
        query: RangeQuery | Mapping[str, tuple[int, int]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
    ) -> IncompleteTable:
        """Materialize the matching rows (id order) as a new table.

        Requires a single semantics: a both-bounds answer is two row sets,
        so there is no one table to materialize — fetch the bound you want.
        The rows are read outside any fence: a database's rows never
        change, so DDL between the query and the read cannot move them.
        """
        semantics = resolve_semantics(semantics)
        if semantics is BOTH:
            raise QueryError(
                "fetch needs a single semantics ('is_match' or 'not_match'); "
                "a both-bounds answer has two row sets"
            )
        report = self.execute(query, semantics, using)
        return self._rows(report.record_ids)

    def execute_ranked(
        self,
        query: RangeQuery | Mapping[str, tuple[int, int]],
        threshold: float = 0.0,
        limit: int | None = None,
        using: str | None = None,
    ) -> RankedReport:
        """Probabilistic answers: possible matches ranked by match chance.

        Runs the one-pass both-bounds execution, then scores every
        possible-but-not-certain row with the probability that imputing its
        missing values from the attribute's observed value distribution
        (``dataset.stats`` histograms, attribute-independent — the same
        assumption the paper's GS formula makes) satisfies the query;
        certain rows score 1.0.  Rows are returned by descending
        probability (ties by record id), filtered to ``probability >=
        threshold`` and capped at ``limit`` when given.  The histograms are
        the *whole table's*, so a sharded database scores every row exactly
        as the engine does however many shards hold the rows.
        """
        query = _as_query(query)
        report = self.execute(query, BOTH, using)
        ids, probabilities, num_certain = rank_both_bounds(
            self._rows,
            self.statistics,
            query,
            report.certain_ids,
            report.possible_ids,
            threshold,
            limit,
        )
        obs.record("semantics.ranked_queries")
        return RankedReport(
            index_name=report.index_name,
            kind=report.kind,
            record_ids=ids,
            probabilities=probabilities,
            num_certain=num_certain,
        )

    def summary(self) -> str:
        """Multi-line overview: table shape, indexes, query counts, caches.

        Per-index tallies count partition executions, so a query that
        reaches three of four shards adds three.
        """
        from repro.bitvector.kernels import get_backend

        parts = self._partitions
        indexes = parts[0]._indexes
        lines = [
            f"{type(self).__name__}: {self.num_records} records, "
            f"{len(self.schema.names)} attributes",
            f"  bitvector kernels: {get_backend().name} backend",
        ]
        lines.extend(f"  {line}" for line in self._shard_lines())
        served = Counter()
        for part in parts:
            served.update(part._query_counts)
        if not indexes:
            lines.append("  indexes: (none; queries fall back to scan)")
        else:
            lines.append("  indexes:")
            for ix in indexes.values():
                attrs = ", ".join(ix.attributes)
                lines.append(
                    f"    {ix.name} ({ix.kind}) on [{attrs}] — "
                    f"{served[ix.name]} "
                    f"quer{'y' if served[ix.name] == 1 else 'ies'} served"
                )
        if served["<scan>"]:
            lines.append(f"  sequential scans: {served['<scan>']}")
        stats = self.cache_stats()
        caches = (
            "sub-result cache" if len(parts) == 1
            else f"sub-result caches ({len(parts)} shards)"
        )
        lines.append(
            f"  {caches}: {stats.entries} entries, "
            f"{stats.bytes} bytes, hit rate {stats.hit_rate:.1%} "
            f"({stats.hits} hits / {stats.misses} misses)"
        )
        return "\n".join(lines)


class IncompleteDatabase(_QuerySurface):
    """A queryable incomplete table with pluggable access methods.

    Parameters
    ----------
    table:
        The data to serve.  A sequential-scan fallback is always available.
    cache_bytes:
        Byte budget for the database's bitvector sub-result cache, used by
        :meth:`execute_batch` (``None`` = unbounded, ``0`` disables storage
        entirely).  See :class:`repro.core.cache.SubResultCache`.
    """

    def __init__(
        self,
        table: IncompleteTable,
        cache_bytes: int | None = DEFAULT_CACHE_BYTES,
    ):
        self._table = table
        self._indexes: dict[str, AttachedIndex] = {}
        self._scan = SequentialScan(table)
        self._query_counts: dict[str, int] = {}
        self._counts_lock = threading.Lock()
        self._cache = SubResultCache(max_bytes=cache_bytes)
        # DDL fence: queries hold the shared side, index DDL the exclusive
        # side, so a reader mid-batch never sees the index set change under
        # it (a "torn generation").  The table itself never changes.
        self._rwlock = ReadWriteLock()
        # Cleared under the write lock by every DDL.
        self._plan_memo: dict = {}
        forksafe.register(self._rwlock)
        forksafe.register(self)

    def _reset_after_fork(self) -> None:
        # A fork child must not inherit the tally lock mid-held by a parent
        # thread (every query takes it); the counts themselves carry over.
        self._counts_lock = threading.Lock()

    @property
    def sub_result_cache(self) -> SubResultCache:
        """The per-interval bitvector cache :meth:`execute_batch` reuses."""
        return self._cache

    def _check_registration(
        self, name: str, kind: str, overwrite: bool
    ) -> None:
        """Reject a taken name (unless overwriting) and an unknown kind."""
        if name in self._indexes and not overwrite:
            raise ReproError(
                f"an index named {name!r} already exists "
                f"(pass overwrite=True to replace it)"
            )
        if kind not in _BUILDERS:
            raise ReproError(
                f"unknown index kind {kind!r}; expected one of {sorted(_BUILDERS)}"
            )

    def _register(
        self, name: str, kind: str, index: object, attributes, options=None
    ) -> AttachedIndex:
        """Install a built index; the caller holds the write lock."""
        attrs = (
            tuple(attributes)
            if attributes is not None
            else tuple(getattr(index, "attributes", self._table.schema.names))
        )
        attached = AttachedIndex(
            name=name, kind=kind, index=index, attributes=attrs,
            options=dict(options or {}),
        )
        self._cache.invalidate(name)
        self._indexes[name] = attached
        self._plan_memo.clear()
        return attached

    def create_index(
        self,
        name: str,
        kind: str,
        attributes: Iterable[str] | None = None,
        overwrite: bool = False,
        **options,
    ) -> AttachedIndex:
        """Build and attach an index.

        Parameters
        ----------
        name:
            Registry name, unique per database.  Re-using a name raises
            unless ``overwrite=True``, which replaces the old index (and
            drops its cached sub-results) atomically from the planner's
            point of view — it never sees a half-registered entry.
        kind:
            One of ``bee``, ``bre``, ``vafile``, ``mosaic``,
            ``rtree-sentinel``, ``bitstring``.
        attributes:
            Attributes to cover; defaults to the whole schema.
        overwrite:
            Replace an existing index of the same name instead of raising.
        options:
            Passed to the index constructor (e.g. ``codec="wah"`` for
            bitmaps, ``bits={...}`` for VA-files).
        """
        self._check_registration(name, kind, overwrite)
        attrs = tuple(attributes) if attributes is not None else self._table.schema.names
        with self._rwlock.write():
            index = _BUILDERS[kind](self._table, list(attrs), **options)
            return self._register(name, kind, index, attrs, options)

    def attach_index(
        self,
        name: str,
        kind: str,
        index: object,
        attributes: Iterable[str] | None = None,
        overwrite: bool = False,
        options: Mapping | None = None,
    ) -> AttachedIndex:
        """Register an already-built index (e.g. one loaded from disk).

        The storage layer (:mod:`repro.storage`, shard manifests) builds
        index objects without going through :meth:`create_index`; this is
        the hatch that registers them under a name.  The same uniqueness
        and cache-invalidation rules as :meth:`create_index` apply.  An
        index whose record count disagrees with the table is rejected —
        a loaded index file that covers the wrong number of rows would
        otherwise answer queries with silently wrong record ids.
        """
        self._check_registration(name, kind, overwrite)
        covered = getattr(index, "num_records", None)
        if covered is not None and covered != self._table.num_records:
            raise ReproError(
                f"index {name!r} covers {covered} records but the table "
                f"has {self._table.num_records}; it was built over a "
                f"different table"
            )
        with self._rwlock.write():
            return self._register(name, kind, index, attributes, options)

    def drop_index(self, name: str) -> None:
        """Detach an index by name, dropping its cached sub-results."""
        if name not in self._indexes:
            raise ReproError(f"no index named {name!r}")
        with self._rwlock.write():
            del self._indexes[name]
            self._cache.invalidate(name)
            self._plan_memo.clear()

    def get_index(self, name: str) -> AttachedIndex:
        """Look up an attached index."""
        try:
            return self._indexes[name]
        except KeyError:
            raise ReproError(f"no index named {name!r}")

    # -- the surface's data ---------------------------------------------------

    @property
    def table(self) -> IncompleteTable:
        """The table this engine serves."""
        return self._table

    @property
    def num_records(self) -> int:
        """Number of records in the table."""
        return self._table.num_records

    @property
    def statistics(self):
        """Lazy whole-table histograms (see :mod:`repro.core.statistics`)."""
        if self._statistics is None:
            self._statistics = TableStatistics(self._table)
        return self._statistics

    def _rows(self, ids: np.ndarray) -> IncompleteTable:
        return self._table.take(ids)

    # -- planning ----------------------------------------------------------

    @property
    def _partitions(self) -> tuple:
        return (self,)

    def _read_fence(self):
        return self._rwlock.read()

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        query: RangeQuery | Mapping[str, tuple[int, int]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
        trace: bool = False,
    ) -> QueryReport:
        """Execute a query and report which access method served it.

        Parameters
        ----------
        query:
            A :class:`RangeQuery`, or ``{attribute: (lo, hi)}`` bounds.
        semantics:
            Missing-data semantics to apply: a
            :class:`~repro.query.model.MissingSemantics`, its string value,
            or ``"both"`` / :data:`~repro.query.model.BOTH` to compute the
            ``(certain, possible)`` pair in one pass (the report then
            reads through ``certain_ids`` / ``possible_ids``).
        using:
            Force a specific attached index by name; defaults to automatic
            selection with sequential-scan fallback.
        trace:
            Build a :class:`~repro.observability.QueryTrace` span tree while
            executing and return it on the report.  Tracing never changes
            the result set (the property-test suite holds us to that); it
            adds per-span timings and the cost-model counters the access
            methods record (see ``docs/observability.md``).
        """
        query = _as_query(query)
        semantics = resolve_semantics(semantics)
        with self._rwlock.read():
            return self._execute_query(query, semantics, using, trace)

    def _execute_query(
        self,
        query: RangeQuery,
        semantics: MissingSemantics | ThreeValued,
        using: str | None,
        trace: bool,
        cache: SubResultCache | None = None,
        shared_masks: dict | None = None,
        planned: tuple | None = None,
        recorded: bool = True,
    ) -> QueryReport:
        """Shared single-query path behind :meth:`execute` / :meth:`execute_batch`.

        One path for every semantics: the answer is a tuple of id arrays,
        one per bound in ``semantics.bounds``.  One plan serves every bound
        (costed under the widest — see
        :func:`repro.core.planner.semantics_for_costing`); bitmap
        indexes and VA-files evaluate all requested bounds in one pass
        (``execute_bound_ids``), and any other access method — the scan
        included — answers with one ``execute_ids`` call per bound on the
        same chosen index, so ``using=`` is always honored.

        ``planned`` is the batch executor's precomputed
        ``(chosen, estimate, forced)`` triple; when given, the plan span is
        kept (so traces from both paths have the same shape) but no planning
        work is redone.  ``cache`` and ``shared_masks`` thread the batch
        sub-result stores into the access methods that understand them;
        both default off, so :meth:`execute` stays cache-free.

        ``recorded=False`` keeps this execution out of the installed
        :class:`~repro.observability.WorkloadRecorder` — the sharded
        scatter-gather path uses it so a fan-out produces one shard-level
        record instead of one per shard.  When the recorder's slow-query
        log wants span trees, a trace is force-built for the log but never
        attached to the report unless the caller asked for one.
        """
        recorder = obs.get_recorder()
        recording = recorded and recorder.active
        qtrace = (
            obs.QueryTrace(
                "query", query=repr(query), semantics=semantics.value
            )
            if trace or (recording and recorder.wants_trace)
            else None
        )
        context = obs.activate(qtrace) if qtrace is not None else nullcontext()
        with context, _query_tally() as observing:
            with obs.trace_span("plan") as plan_span:
                if planned is None:
                    chosen, forced, (estimate,) = self._resolve_plan(
                        query, semantics, using
                    )
                else:
                    chosen, estimate, forced = planned
                if plan_span is not None:
                    plan_span.set(
                        "chosen", chosen.name if chosen else "<scan>"
                    )
                    plan_span.set("forced", forced)
                    if planned is not None:
                        plan_span.set("batched", True)
                    if estimate is not None:
                        plan_span.set(
                            "estimated_items", round(estimate.items)
                        )
                        plan_span.set(
                            "predicted_ns", round(estimate.predicted_ns)
                        )
            name = chosen.name if chosen is not None else "<scan>"
            kind = chosen.kind if chosen is not None else "scan"
            index = chosen.index if chosen is not None else self._scan
            track = None
            start = time.perf_counter_ns()
            with obs.trace_span(f"execute.{kind}", index=name):
                if isinstance(index, (BitmapIndex, VAFile)):
                    track = OpCounter() if observing else None
                    stores = (
                        {"shared_masks": shared_masks}
                        if isinstance(index, VAFile)
                        else {"cache": cache, "cache_key": (name,)}
                    )
                    ids = index.execute_bound_ids(
                        query, semantics, counter=track, **stores
                    )
                else:
                    ids = tuple(
                        np.asarray(index.execute_ids(query, bound))
                        for bound in semantics.bounds
                    )
            elapsed_ns = time.perf_counter_ns() - start
            with self._counts_lock:
                self._query_counts[name] = self._query_counts.get(name, 0) + 1
            if observing:
                obs.record("engine.queries")
                obs.record(f"engine.queries.{kind}")
                obs.observe(f"engine.query_ns.{kind}", elapsed_ns)
                obs.record(f"planner.plan_chosen.{kind}")
                if semantics is BOTH:
                    # The estimate prices one bound, the tally covers the
                    # pair: keep it out of the planner-accuracy counters.
                    obs.record("semantics.both_queries")
                    obs.record(
                        "semantics.possible_only_rows",
                        len(ids[-1]) - len(ids[0]),
                    )
                elif estimate is not None and track is not None:
                    obs.observe(
                        "planner.predicted_ns", round(estimate.predicted_ns)
                    )
                    obs.record(
                        "planner.estimated_items", round(estimate.items)
                    )
                    obs.record(
                        "planner.actual_items", track.words_processed
                    )
        if qtrace is not None:
            qtrace.root.set("index", name)
            for label, bound_ids in zip(_BOUND_LABELS[len(ids)], ids):
                qtrace.root.set(label, len(bound_ids))
            if track is not None:
                qtrace.root.set("actual_items", track.words_processed)
            qtrace.close()
        if recording:
            recorder.record_query(
                source="engine",
                batch=planned is not None,
                query=query,
                semantics=semantics,
                index=name,
                kind=kind,
                # The widest bound: every other bound is a subset of it.
                matches=len(ids[-1]),
                elapsed_ns=elapsed_ns,
                trace=qtrace,
            )
        return QueryReport(
            name, kind, ids,
            trace=qtrace if trace else None, elapsed_ns=elapsed_ns,
        )

    def execute_batch(
        self,
        queries: Sequence[RangeQuery | Mapping[str, tuple[int, int]]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
        trace: bool = False,
        cache: bool | SubResultCache | None = True,
    ) -> list[QueryReport]:
        """Execute a workload of queries, reusing sub-results across them.

        Every query is planned up front; queries are then grouped by chosen
        index and each group is ordered so queries sharing intervals run
        back-to-back (see :func:`repro.core.planner.plan_batch`).  Within a
        group, bitmap indexes memoize per-interval bitvectors in the
        database's :class:`~repro.core.cache.SubResultCache` and VA-files
        share each distinct interval's approximation scan.

        Batching never changes results: the returned reports are in
        submission order and each carries exactly the record-id set the
        query would get from :meth:`execute` (the property-test suite holds
        us to that, extending PR 2's "tracing never changes results").

        Parameters
        ----------
        queries:
            :class:`RangeQuery` objects or ``{attribute: (lo, hi)}`` bounds.
        semantics:
            Missing-data semantics applied to every query.
        using:
            Force one attached index for the whole batch.
        trace:
            Attach a per-query span tree to each report; each query's tree
            holds only its own spans.
        cache:
            ``True`` (default) uses the database's own cache, ``False`` /
            ``None`` disables sub-result memoization, or pass an explicit
            :class:`~repro.core.cache.SubResultCache` to control the budget
            per batch.
        """
        normalized = [_as_query(q) for q in queries]
        semantics = resolve_semantics(semantics)
        if cache is True:
            sub_cache = self._cache
        elif cache is False or cache is None:
            sub_cache = None
        else:
            sub_cache = cache
        # Plan + run under one shared hold, so a writer can never swap the
        # index set between a batch's planning and its execution; and under
        # one tally, so the whole batch reaches the registry once.
        with self._rwlock.read(), _query_tally():
            planned = []
            for query in normalized:
                chosen, forced, (estimate,) = self._resolve_plan(
                    query, semantics, using
                )
                planned.append((chosen, estimate, forced))
            reports = self._run_planned_batch(
                normalized, planned, semantics, trace, sub_cache
            )
            obs.record("engine.batches")
            obs.record("engine.batch_queries", len(normalized))
        return reports

    def _run_planned_batch(
        self,
        normalized: Sequence[RangeQuery],
        planned: Sequence[tuple],
        semantics: MissingSemantics | ThreeValued,
        trace: bool,
        sub_cache: SubResultCache | None,
        recorded: bool = True,
    ) -> list[QueryReport]:
        """Run pre-planned queries grouped per index (batch back half).

        Shared by :meth:`execute_batch` and the sharded scatter-gather path
        (:class:`repro.shard.ShardedDatabase` plans once against merged
        statistics, then hands each shard its slice of pre-planned work).
        ``planned[i]`` is the ``(chosen, estimate, forced)`` triple for
        ``normalized[i]``; reports come back in submission order.
        """
        chosen_names = [
            chosen.name if chosen is not None else None
            for chosen, _, _ in planned
        ]
        groups = plan_batch(list(normalized), chosen_names)
        reports: list[QueryReport | None] = [None] * len(normalized)
        for group in groups:
            # Per-group memo for VA-file interval masks; bitmap groups
            # simply never read it.
            shared_masks: dict = {}
            for pos in group.positions:
                reports[pos] = self._execute_query(
                    normalized[pos],
                    semantics,
                    using=None,
                    trace=trace,
                    cache=sub_cache,
                    shared_masks=shared_masks,
                    planned=planned[pos],
                    recorded=recorded,
                )
        return reports

    def query_predicate(
        self,
        predicate,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
    ) -> QueryReport:
        """Execute an arbitrary boolean predicate (AND/OR/NOT of atoms).

        Bitmap indexes and VA-files evaluate predicate trees natively; the
        other access methods fall back to a ground-truth scan.  With
        ``semantics="both"`` the tree is evaluated three-valued in one pass
        (NOT swaps the bounds) and the report carries both bounds.
        """
        semantics = resolve_semantics(semantics)
        with self._rwlock.read(), _query_tally():
            chosen = self._resolve_plan(predicate, semantics, using)[0]
            return self._execute_predicate(predicate, semantics, chosen)

    def _execute_predicate(
        self,
        predicate,
        semantics: MissingSemantics | ThreeValued,
        chosen: AttachedIndex | None,
    ) -> QueryReport:
        """Evaluate a predicate on its planned index (None: ground truth)."""
        from repro.query.boolean import evaluate_predicate

        start = time.perf_counter_ns()
        if chosen is None:
            ids = tuple(
                evaluate_predicate(self._table, predicate, bound)
                for bound in semantics.bounds
            )
            name, kind = "<scan>", "scan"
        else:
            ids = chosen.index.execute_predicate_bound_ids(
                predicate, semantics
            )
            name, kind = chosen.name, chosen.kind
        if semantics is BOTH:
            obs.record("semantics.both_predicates")
        return QueryReport(
            name, kind, ids, elapsed_ns=time.perf_counter_ns() - start
        )

    # -- introspection ---------------------------------------------------------

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{ix.name}:{ix.kind}" for ix in self._indexes.values()
        )
        return (
            f"IncompleteDatabase(records={self._table.num_records}, "
            f"attributes={len(self._table.schema.names)}, "
            f"indexes=[{kinds}])"
        )
