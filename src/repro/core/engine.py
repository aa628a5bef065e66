"""The :class:`IncompleteDatabase` facade: one table, many indexes.

This is the library's top-level entry point and its one database type.
It holds an :class:`~repro.dataset.table.IncompleteTable` as an ordered
tuple of row-range segments (:mod:`repro.core.segment`; one by default),
lets the caller attach any of the access methods implemented in this
package under a name, executes queries under either missing-data
semantics through a uniform interface, and can explain/compare plans.

Every access method answers with exactly the same record-id set (verified by
the test suite against the brute-force oracle); they differ in index size
and the work done per query, which is what the paper studies.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro import forksafe
from repro import observability as obs
from repro.baselines.seqscan import SequentialScan
from repro.bitmap.base import BitmapIndex
from repro.bitvector.ops import OpCounter
from repro.core.planner import (
    choose_plan,
    rank_plans,
    semantics_for_costing,
    unit_costs,
)
from repro.core.segment import (
    _BUILDERS,
    AttachedIndex,
    Segment,
    ZoneMaps,
    join_index,
)
from repro.core.statistics import TableStatistics
from repro.core.sync import ReadWriteLock
from repro.dataset.table import IncompleteTable, join_tables
from repro.errors import QueryError, ReproError, ShardError
from repro.observability.metrics import _QueryTally
from repro.query.boolean import Predicate, evaluate_predicate
from repro.query.model import (
    BOTH,
    MissingSemantics,
    RangeQuery,
    resolve_semantics,
)
from repro.vafile.vafile import VAFile


class ShardReportSlice(NamedTuple):
    """One segment's share of an answer (an engine's report has one)."""

    shard_id: int
    #: True when the segment's rows were skipped: its exact histograms
    #: rule out a match.
    pruned: bool
    #: Match count of the widest bound (every other bound is a subset)
    #: within the segment's rows.
    num_matches: int


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
    #: One slice per segment (an engine's report has one).
    per_shard: tuple[ShardReportSlice, ...] = field(default=(), repr=False)
    #: Span tree populated when the query ran with ``trace=True``.
    trace: obs.QueryTrace | None = field(default=None, repr=False)
    #: Wall-clock time of the item's plan, evaluation and id shift.
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
        """How many segments the query skipped outright."""
        return sum(1 for s in self.per_shard if s.pruned)


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


#: What an untraced item's execution runs under instead of its trace.
_UNTRACED = nullcontext()

#: Plans a database's memo holds before it evicts its oldest: one entry
#: per ``(item, semantics, using)``, room for the served op set's 6,725.
_PLAN_MEMO_LIMIT = 8192

#: The zone of a plan carried from an earlier snapshot: not yet worked out
#: over this one's segments.
_UNZONED = object()


class _PlanMemo:
    """Resolved plans by ``(item, semantics, using)``, oldest out first.

    A lookup takes no lock.  An insert into a full memo drops the oldest
    entry (a dict keeps insertion order), and inserts, clears and copies
    take the memo's lock, so two threads evicting at once never drop the
    same key and a copy never iterates a dict an eviction is changing.
    DDL starts a new memo; a row write's snapshot starts with a copy
    (:meth:`carried`).
    """

    __slots__ = ("_plans", "_lock", "__weakref__")

    def __init__(self):
        self._plans: dict = {}
        self._lock = threading.Lock()
        forksafe.register(self)

    def _reset_after_fork(self) -> None:
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, key):
        return self._plans.get(key)

    def put(self, key, plan) -> None:
        with self._lock:
            plans = self._plans
            if len(plans) >= _PLAN_MEMO_LIMIT and key not in plans:
                del plans[next(iter(plans))]
            plans[key] = plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def carried(self) -> "_PlanMemo":
        """A new memo holding these plans, each zoned again on first use."""
        memo = _PlanMemo()
        with self._lock:
            memo._plans = {
                key: (chosen, forced, estimate, _UNZONED)
                for key, (chosen, forced, estimate, _) in self._plans.items()
            }
        return memo


class _Choice(NamedTuple):
    """The index a plan runs on, by name: a plan holds no index object, so
    one carried to a later snapshot keeps nothing of this one alive."""

    name: str
    kind: str


def _index_set(segment: Segment) -> list[tuple]:
    """What a plan depends on of ``segment``'s indexes: names, kinds,
    attributes and options, in attachment order."""
    return [
        (ix.name, ix.kind, ix.attributes, ix.options)
        for ix in segment.indexes.values()
    ]


class _NoCacheStats(NamedTuple):
    hits: int = 0
    misses: int = 0


class _NoSubResultCache:
    """Tallies of a sub-result cache that no longer exists: always zero."""

    def stats(self) -> _NoCacheStats:
        return _NoCacheStats()


_NO_CACHE = _NoSubResultCache()


class IncompleteDatabase:
    """A queryable incomplete table with pluggable access methods.

    Parameters
    ----------
    table:
        The data to serve, held as one segment.  A sequential-scan
        fallback is always available.

    A database is an ordered tuple of :class:`~repro.core.segment.Segment`
    records (``segments``): segment *k* holds the global rows
    ``[start_k, start_k + n_k)`` and the indexes built over them, and every
    segment holds the same index set.  Segments are what the snapshot
    writer rebuilds or shares and what a save writes
    (:mod:`repro.serve.writer`, :mod:`repro.shard.manifest`).  Reads run on
    the only segment; with several, on one segment whose table joins
    theirs on the first read and whose indexes join one by one as reads
    choose them (:func:`~repro.core.segment.join_index`), and the
    segments' exact histograms act as zone maps: when a range
    query can match no row of the segments at either end, the chosen index
    evaluates only the row *window* spanning the rest and its ids shift by
    the window's first row.  Histograms are exact, so this never changes
    results.

    One read/write lock orders index DDL against queries (a database's
    rows never change: new rows arrive as a new snapshot), one plan memo
    and one set of query counts serve every read, and a database can be
    closed, or frozen into a published snapshot that refuses DDL.
    """

    def __init__(self, table: IncompleteTable):
        self._init_segments([Segment(0, table)])

    @classmethod
    def from_segments(cls, segments: Sequence[Segment]) -> "IncompleteDatabase":
        """A database over ``segments``, in row order.

        Each segment's rows follow the previous one's; a segment whose
        ``start`` disagrees is re-stamped (its table and indexes shared).
        The loader passes segments read back as serialized, and the
        snapshot writer's DDL the current snapshot's (its row writes go
        through :meth:`_successor`).
        """
        self = cls.__new__(cls)
        self._init_segments(segments)
        return self

    def _successor(self, segments: Sequence[Segment]) -> "IncompleteDatabase":
        """The next snapshot over ``segments``, keeping what this one paid for.

        With the same index set, it starts with a copy of these plans:
        they name indexes, and a name means the same index over the new
        rows, so a plan only changes time there, never answers (each
        plan's zone is worked out again on its first use).  Each bitmap
        slot this database has joined is carried to the next join of its
        index, which copies the groups of the leading segments the two
        share (the same records, so the same rows at the same starts) and
        decodes only the rest.  What it carries refers to neither this
        database nor its joined indexes, so no chain of snapshots stays
        alive.  Another index set starts cold, as after DDL.
        """
        db = IncompleteDatabase.from_segments(segments)
        if _index_set(db._segments[0]) != _index_set(self._segments[0]):
            return db
        db._plan_memo = self._plan_memo.carried()
        kept = 0
        for old, new in zip(self._segments, db._segments):
            if old is not new:
                break
            kept += 1
        reader = self._reader
        if kept and reader is not None:
            for name, attached in reader.indexes.items():
                if isinstance(attached.index, BitmapIndex):
                    slots = attached.index.joined_slots()
                    if slots:
                        db._carried[name] = (kept, slots)
        return db

    def _init_segments(self, segments: Sequence[Segment]) -> None:
        if not segments:
            raise ReproError("a database needs at least one segment")
        names = tuple(segments[0].indexes)
        stamped = []
        start = 0
        for k, segment in enumerate(segments):
            if tuple(segment.indexes) != names:
                raise ReproError(
                    f"segment {k} holds indexes {list(segment.indexes)}, "
                    f"segment 0 holds {list(names)}"
                )
            if segment.start != start:
                segment = replace(segment, start=start)
            stamped.append(segment)
            start += segment.num_records
        self._segments: tuple[Segment, ...] = tuple(stamped)
        self._num_records = start
        #: The segment reads run on: the only one, or all of them joined
        #: (the table on the first read, each index on its first use).
        self._reader: Segment | None = stamped[0] if len(stamped) == 1 else None
        self._statistics: TableStatistics | None = None
        self._zone_maps: ZoneMaps | None = None
        self._query_counts: dict[str, int] = {}
        self._counts_lock = threading.Lock()
        self._assembly_lock = threading.Lock()
        # DDL fence: queries hold the shared side, index DDL the exclusive
        # side, so a reader mid-batch never sees the index set change under
        # it (a "torn generation") and no plan is memoized across DDL.
        self._rwlock = ReadWriteLock()
        # Replaced under the write lock by every DDL.
        self._plan_memo = _PlanMemo()
        #: Index name -> ``(kept, slots)``: the bitmap slots a predecessor
        #: joined over this database's first ``kept`` segments, which the
        #: index's join copies (:meth:`_successor`).
        self._carried: dict[str, tuple] = {}
        forksafe.register(self._rwlock)
        forksafe.register(self)
        self._closed = False
        #: Set by :meth:`freeze` once this database becomes a published
        #: MVCC snapshot; index DDL then raises instead of mutating state
        #: readers may have pinned.
        self._frozen = False
        #: Epoch number stamped by the serving layer's EpochManager when
        #: this database is published as a snapshot; None outside serving.
        self.snapshot_epoch: int | None = None

    def _reset_after_fork(self) -> None:
        # A fork child must not inherit the tally or assembly lock mid-held
        # by a parent thread; the counts themselves carry over.
        self._counts_lock = threading.Lock()
        self._assembly_lock = threading.Lock()

    @property
    def sub_result_cache(self) -> _NoSubResultCache:
        """Zero tallies: there is no sub-result cache.

        Kept only because ``bench/layers.py``'s batch probe still reads
        ``sub_result_cache.stats().hits`` / ``.misses``; it goes in a
        benchmark-only change.
        """
        return _NO_CACHE

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close the database; reads and DDL then raise.

        Closing twice raises :class:`~repro.errors.ShardError` — a second
        ``close()`` means two owners think they hold the database, which is
        exactly the bug the error should surface.  The context-manager exit
        only closes a still-open database, so ``with`` blocks compose with
        an explicit early ``close()``.
        """
        if self._closed:
            raise ShardError("this database has already been closed")
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise ShardError("this database has been closed")

    def freeze(self) -> "IncompleteDatabase":
        """Mark this database an immutable snapshot; returns ``self``.

        A frozen database still answers every query, but index DDL raises
        :class:`~repro.errors.ShardError`.  The serving layer freezes each
        database before publishing it as an epoch, so nothing can mutate
        state a pinned reader depends on — writers build a *new* database
        and publish that instead.
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has made this a published snapshot."""
        return self._frozen

    def __enter__(self) -> "IncompleteDatabase":
        return self

    def __exit__(self, *exc) -> None:
        if not self._closed:
            self.close()

    # -- index management ------------------------------------------------------

    def _ensure_mutable(self) -> None:
        self._ensure_open()
        if self._frozen:
            raise ShardError(
                "this database is a frozen snapshot (published as epoch "
                f"{self.snapshot_epoch}); build a new snapshot instead of "
                "mutating it"
            )

    def _check_registration(
        self, name: str, kind: str, overwrite: bool
    ) -> None:
        """Refuse DDL on a closed or frozen database, a taken name (unless
        overwriting) and an unknown kind."""
        self._ensure_mutable()
        if name in self._segments[0].indexes and not overwrite:
            raise ReproError(
                f"an index named {name!r} already exists "
                f"(pass overwrite=True to replace it)"
            )
        if kind not in _BUILDERS:
            raise ReproError(
                f"unknown index kind {kind!r}; expected one of {sorted(_BUILDERS)}"
            )

    def _install(self, segments: Sequence[Segment]) -> None:
        """Swap in ``segments`` after DDL; the caller holds the write lock.

        Plans start over in a new memo (a snapshot that copied the old one
        keeps its own), and with several segments the next read joins
        again, carrying nothing.
        """
        with self._assembly_lock:
            self._segments = tuple(segments)
            self._reader = (
                self._segments[0] if len(self._segments) == 1 else None
            )
            self._plan_memo = _PlanMemo()
            self._carried = {}

    def create_index(
        self,
        name: str,
        kind: str,
        attributes: Iterable[str] | None = None,
        overwrite: bool = False,
        **options,
    ) -> AttachedIndex:
        """Build and attach an index, over every segment.

        Parameters
        ----------
        name:
            Registry name, unique per database.  Re-using a name raises
            unless ``overwrite=True``, which replaces the old index
            atomically from the planner's point of view — it never sees a
            half-registered entry.
        kind:
            One of ``bee``, ``bre``, ``bie``, ``bsl``, ``vafile``,
            ``mosaic``, ``rtree-sentinel``, ``bitstring``, ``gridfile``.
        attributes:
            Attributes to cover; defaults to the whole schema.
        overwrite:
            Replace an existing index of the same name instead of raising.
        options:
            Passed to the index constructor (e.g. ``codec="wah"`` for
            bitmaps, ``bits={...}`` for VA-files).

        Returns the first segment's entry; name, kind, attributes and
        options are the same on every segment.
        """
        self._check_registration(name, kind, overwrite)
        with self._rwlock.write():
            segments = [
                segment.with_index(
                    segment.build(name, kind, attributes, options)
                )
                for segment in self._segments
            ]
            self._install(segments)
        return segments[0].indexes[name]

    def attach_index(
        self,
        name: str,
        kind: str,
        index: object,
        attributes: Iterable[str] | None = None,
        overwrite: bool = False,
        options: Mapping | None = None,
    ) -> AttachedIndex:
        """Register an already-built index over every row.

        The same uniqueness rules as :meth:`create_index` apply.  An index
        whose record count disagrees with the table is rejected — a loaded
        index file that covers the wrong number of rows would otherwise
        answer queries with silently wrong record ids.  Only a one-segment
        database takes one: a database of several segments holds an index
        per segment (build it with :meth:`create_index`).
        """
        self._check_registration(name, kind, overwrite)
        with self._rwlock.write():
            if len(self._segments) != 1:
                raise ReproError(
                    f"attach_index needs a one-segment database; this one "
                    f"has {len(self._segments)} segments"
                )
            (segment,) = self._segments
            attached = segment.attach(name, kind, index, attributes, options)
            self._install([segment.with_index(attached)])
        return attached

    def drop_index(self, name: str) -> None:
        """Detach an index by name, from every segment."""
        self._ensure_mutable()
        if name not in self._segments[0].indexes:
            raise ReproError(f"no index named {name!r}")
        with self._rwlock.write():
            self._install(
                [segment.without_index(name) for segment in self._segments]
            )

    def get_index(self, name: str) -> AttachedIndex:
        """The attached index ``name``, answering over every row."""
        with self._rwlock.read():
            if name not in self._segments[0].indexes:
                raise ReproError(f"no index named {name!r}")
            return self._attached(name)

    def _attached(self, name: str) -> AttachedIndex:
        """The read segment's entry for the attached index ``name``.

        With several segments it is joined from theirs on first use, so an
        index no read chooses is never joined.  The caller holds the read
        lock, so no DDL resets the read segment meanwhile.
        """
        attached = self._read_segment().indexes.get(name)
        if attached is None:
            with self._assembly_lock:
                reader = self._reader
                attached = reader.indexes.get(name)
                if attached is None:
                    attached = join_index(
                        self._segments, reader.table, name,
                        self._carried.pop(name, None),
                    )
                    self._reader = reader.with_index(attached)
        return attached

    # -- data -----------------------------------------------------------------

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The segments, in row order."""
        return self._segments

    @property
    def num_shards(self) -> int:
        """Number of segments."""
        return len(self._segments)

    @property
    def num_records(self) -> int:
        """Number of records across every segment."""
        return self._num_records

    @property
    def schema(self):
        """The table schema."""
        return self._segments[0].table.schema

    @property
    def table(self) -> IncompleteTable:
        """Every row, in id order: the table reads run on."""
        return self._read_segment().table

    @property
    def statistics(self) -> TableStatistics:
        """Whole-table histograms: the segments' exact histograms, summed."""
        if self._statistics is None:
            self._statistics = TableStatistics.summed(
                [segment.statistics for segment in self._segments]
            )
        return self._statistics

    def _rows(self, ids: np.ndarray) -> IncompleteTable:
        """The rows with ascending ``ids``, as a new table."""
        return self.table.take(ids)

    @property
    def index_names(self) -> tuple[str, ...]:
        """Names of attached indexes, in attachment order."""
        return tuple(self._segments[0].indexes)

    def _read_segment(self) -> Segment:
        """The segment every read runs on: the only one, or one over the
        segments' joined table, made on the first read without indexes
        (:meth:`_attached` joins them)."""
        reader = self._reader
        if reader is None:
            with self._assembly_lock:
                reader = self._reader
                if reader is None:
                    reader = Segment(0, join_tables(
                        [segment.table for segment in self._segments]
                    ), {}, self.statistics)
                    self._reader = reader
        return reader

    def _zone(self, item, semantics):
        """The row span a range query's surviving segments cover.

        ``(start, stop, skipped)``: the rows from the first to the last
        segment the zone maps leave the query, and the segments outside
        them (``start == stop`` when none survives); None when every
        segment survives, for a predicate, or with one segment.
        """
        segments = self._segments
        if len(segments) < 2 or not isinstance(item, RangeQuery):
            return None
        if self._zone_maps is None:
            self._zone_maps = ZoneMaps(
                [segment.statistics for segment in segments]
            )
        alive = self._zone_maps.alive(item, semantics_for_costing(semantics))
        if alive.all():
            return None
        survivors = np.flatnonzero(alive)
        if not len(survivors):
            return 0, 0, tuple(range(len(segments)))
        first, last = int(survivors[0]), int(survivors[-1])
        skipped = tuple(
            k for k in range(len(segments)) if k < first or k > last
        )
        return segments[first].start, segments[last].start + (
            segments[last].num_records
        ), skipped

    # -- planning -------------------------------------------------------------

    def estimate_count(
        self,
        query: RangeQuery | Mapping[str, tuple[int, int]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
    ) -> int:
        """Estimated matches without executing (GS product estimator)."""
        return self.statistics.estimate_count(_as_query(query), semantics)

    def _forced_index(self, using: str, attributes) -> AttachedIndex:
        """The index ``using=`` names, checked to cover ``attributes``."""
        chosen = self._segments[0].indexes.get(using)
        if chosen is None:
            raise ReproError(f"no index named {using!r}")
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
        predicted time (see :func:`repro.core.planner.choose_plan`); if
        none is costable, the fixed order MOSAIC > R-tree > grid file >
        bitstring decides.  The entry returned is :meth:`get_index`'s: its
        index answers over every row, whatever the segment count.
        """
        with self._rwlock.read():
            chosen = self._resolve_plan(
                _as_query(query), resolve_semantics(semantics), None
            )[0]
            return None if chosen is None else self._attached(chosen.name)

    def _covering(self, item) -> list[AttachedIndex]:
        """The attached indexes that can serve a range query or predicate.

        Only bitmap indexes and VA-files evaluate predicate trees.
        """
        indexes = self._segments[0].indexes.values()
        if isinstance(item, RangeQuery):
            return [ix for ix in indexes if ix.covers(item)]
        attributes = item.attributes()
        return [
            ix for ix in indexes
            if attributes <= set(ix.attributes)
            and isinstance(ix.index, (BitmapIndex, VAFile))
        ]

    def _plan(self, item, semantics) -> tuple:
        """``(chosen, ranking, estimate of chosen)``, ranked afresh.

        ``item`` is a :class:`RangeQuery` or a predicate; ``chosen`` None
        is the scan fallback.  The costable covering indexes are ranked
        over every row and the one chooser
        (:func:`~repro.core.planner.choose_plan`) picks.  Nothing is
        memoized here: :meth:`_resolve_plan` keeps what a query runs on,
        and ``explain`` prints a fresh ranking.
        """
        with self._rwlock.read():
            covering = self._covering(item)
            ranking = rank_plans(
                [
                    self._attached(ix.name) for ix in covering
                    if isinstance(ix.index, (BitmapIndex, VAFile))
                ],
                item,
                semantics_for_costing(semantics),
            ) if covering else []
            chosen, ranking = choose_plan(covering, ranking)
            estimate = None if chosen is None else next(
                (p for p in ranking if p.index_name == chosen.name), None
            )
        return chosen, ranking, estimate

    def _resolve_plan(self, item, semantics, using: str | None) -> tuple:
        """The ``(chosen, forced, estimate, zone)`` an item runs on.

        ``using`` forces a covering index (no estimate); a predicate forced
        onto an index with no tree evaluator runs as a ground-truth scan
        (``chosen`` None).  Anything but a :class:`RangeQuery` must be a
        :class:`~repro.query.boolean.Predicate`.  ``chosen`` names the
        index (a :class:`_Choice`) and ``zone`` is :meth:`_zone`'s.
        Memoized in ``_plan_memo``, one entry per ``(item, semantics,
        using)``, until the index set changes; a plan carried from an
        earlier snapshot only has its zone worked out.
        """
        if not isinstance(item, (RangeQuery, Predicate)):
            raise QueryError(
                f"expected a Predicate, got {type(item).__name__}"
            )
        key = (item, semantics, using)
        plan = self._plan_memo.get(key)
        if plan is not None and plan[3] is not _UNZONED:
            return plan
        with self._rwlock.read():
            chosen, forced, estimate = (
                plan[:3] if plan is not None
                else self._choose(item, semantics, using)
            )
            plan = (chosen, forced, estimate, self._zone(item, semantics))
            self._plan_memo.put(key, plan)
        return plan

    def _choose(self, item, semantics, using: str | None) -> tuple:
        """``(chosen, forced, estimate)`` of a plan: :meth:`_resolve_plan`'s
        less the zone; the caller holds the read lock."""
        if using is None:
            chosen, _, estimate = self._plan(item, semantics)
            if estimate is not None:
                # A run reads only its numbers; ``explain`` re-ranks.
                estimate = replace(estimate, detail="")
        else:
            estimate = None
            if isinstance(item, RangeQuery):
                chosen = self._forced_index(using, item.attributes)
            else:
                chosen = self._forced_index(using, item.attributes())
                if not isinstance(chosen.index, (BitmapIndex, VAFile)):
                    chosen = None
        if chosen is not None:
            chosen = _Choice(chosen.name, chosen.kind)
        return chosen, using is not None, estimate

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
        return self._run(
            [_as_query(query)], resolve_semantics(semantics), using, trace,
            batch=False,
        )[0]

    def execute_batch(
        self,
        queries: Sequence[RangeQuery | Mapping[str, tuple[int, int]]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
        trace: bool = False,
    ) -> list[QueryReport]:
        """Execute a workload of queries, sharing scans across them.

        Queries run in submission order; each VA-file scans every distinct
        interval's approximations once per batch.  Batching never changes
        results: each report carries exactly the record-id set
        :meth:`execute` gives the query (the property-test suite holds us
        to that), and a trace holds only its own query's spans.
        """
        return self._run(
            [_as_query(q) for q in queries], resolve_semantics(semantics),
            using, trace, batch=True,
        )

    def query_predicate(
        self,
        predicate,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
    ) -> QueryReport:
        """Execute an arbitrary boolean predicate (AND/OR/NOT of atoms).

        Bitmap indexes and VA-files evaluate predicate trees natively; the
        other access methods fall back to a ground-truth scan.  The pick is
        costed like a query's; a predicate is never pruned (a NOT over a
        pruned-out segment could still match).  With
        ``semantics="both"`` the tree is evaluated three-valued in one
        pass (NOT swaps the bounds) and the report carries both bounds.
        """
        return self._run(
            [predicate], resolve_semantics(semantics), using, trace=False,
            batch=False,
        )[0]

    def _slices(self, widest: np.ndarray, skipped) -> tuple:
        """One :class:`ShardReportSlice` per segment of an answer."""
        segments = self._segments
        if len(segments) == 1:
            return (ShardReportSlice(0, False, len(widest)),)
        starts = [segment.start for segment in segments[1:]]
        cuts = [0, *np.searchsorted(widest, starts).tolist(), len(widest)]
        return tuple(
            ShardReportSlice(k, k in skipped, cuts[k + 1] - cuts[k])
            for k in range(len(segments))
        )

    def _run(
        self, items, semantics, using: str | None, trace: bool, batch: bool
    ) -> list[QueryReport]:
        """Plan and evaluate ``items`` on the read segment; one report each.

        The one query body.  Each item is planned once (memoized) and
        evaluated once by :meth:`_evaluate` over the read segment; when a
        zone map skips segments at either end the chosen index evaluates
        only the rows between (a *window*) and the ids shift by the
        window's first row.  ``elapsed_ns`` is an item's
        plan, evaluation and shift.  A traced item's tree is ``query`` →
        ``plan`` and one ``execute.<kind>``.  All of it runs under the read
        fence and one tally.
        """
        recorder = obs.get_recorder()
        # A predicate has no interval list for a workload record to hold.
        recording = (
            recorder.active and bool(items)
            and isinstance(items[0], RangeQuery)
        )
        tracing = trace or (recording and recorder.wants_trace)
        segments = len(self._segments)
        # Counted as a sharded read when there is more than one segment.
        sharded = segments > 1
        source = "shard" if sharded else "engine"
        self._ensure_open()
        with self._rwlock.read(), _QueryTally() as observing:
            reader = self._read_segment()
            masks: dict | None = {} if batch else None
            reports = []
            for item in items:
                qtrace = (
                    obs.QueryTrace(
                        "query", query=repr(item), semantics=semantics.value
                    )
                    if tracing else None
                )
                start = time.perf_counter_ns()
                with obs.activate(qtrace) if qtrace is not None else _UNTRACED:
                    with obs.trace_span("plan") as plan_span:
                        chosen, forced, estimate, zone = self._resolve_plan(
                            item, semantics, using
                        )
                        attached = (
                            None if chosen is None
                            else self._attached(chosen.name)
                        )
                        index = (
                            SequentialScan(reader.table) if attached is None
                            else attached.index
                        )
                        first, skipped = 0, ()
                        if zone is not None:
                            rows_start, rows_stop, skipped_there = zone
                            if rows_start == rows_stop:
                                index, skipped = None, skipped_there
                            elif hasattr(index, "window"):
                                view, first = index.window(rows_start, rows_stop)
                                if view is not index:
                                    index, skipped = view, skipped_there
                        name = chosen.name if chosen is not None else None
                        if plan_span is not None:
                            plan_span.set("chosen", name or "<scan>")
                            plan_span.set("forced", forced)
                            if skipped:
                                plan_span.set("pruned_shards", list(skipped))
                            if estimate is not None:
                                plan_span.set("estimated_items", round(estimate.items))
                                plan_span.set(
                                    "predicted_ns", round(estimate.predicted_ns)
                                )
                    if index is None:
                        ids = tuple(
                            np.empty(0, dtype=np.int64) for _ in semantics.bounds
                        )
                    else:
                        shared = None
                        if masks is not None and isinstance(index, VAFile):
                            shared = masks.setdefault(
                                (name, first, index.num_records), {}
                            )
                        ids = self._evaluate(
                            item, attached, index, estimate, semantics, shared
                        )
                shift_start = time.perf_counter_ns()
                if first:
                    ids = tuple(bound + first for bound in ids)
                end = time.perf_counter_ns()
                evaluated = 0 if index is None else segments - len(skipped)
                if observing and sharded:
                    obs.record("shard.fanout_tasks", evaluated)
                    obs.record("shard.pruned", len(skipped))
                    obs.observe("shard.merge_ns", end - shift_start)
                label = name if name is not None else "<scan>"
                kind = chosen.kind if chosen is not None else "scan"
                report = QueryReport(
                    label, kind, ids, per_shard=self._slices(ids[-1], skipped),
                    trace=qtrace if trace else None, elapsed_ns=end - start,
                )
                if qtrace is not None:
                    qtrace.root.set("index", label)
                    for bound_label, bound in zip(_BOUND_LABELS[len(ids)], ids):
                        qtrace.root.set(bound_label, len(bound))
                    qtrace.close()
                if recording:
                    recorder.record_query(
                        source=source,
                        batch=batch,
                        query=item,
                        semantics=semantics,
                        index=label,
                        kind=kind,
                        # The widest bound: every other bound is a subset.
                        matches=len(ids[-1]),
                        elapsed_ns=end - start,
                        trace=qtrace,
                        shards_executed=evaluated,
                        shards_pruned=len(skipped),
                    )
                reports.append(report)
            if batch:
                obs.record(f"{source}.batches")
                obs.record(f"{source}.batch_queries", len(items))
            elif observing and sharded:
                obs.record("shard.queries")
        return reports

    def _shard_lines(self, query=None, costing=None) -> list[str]:
        """What ``summary`` and (given a query) ``explain`` say of the
        segments: nothing when there is one."""
        if len(self._segments) == 1:
            return []
        lines = [
            f"{self.num_shards} shards (row-range segments, read as one)"
        ]
        zone = None if query is None else self._zone(query, costing)
        pruned = [] if zone is None else list(zone[2])
        for k, segment in enumerate(self._segments):
            line = f"  shard {k}: {segment.num_records} records"
            if k in pruned:
                line += " (pruned)"
            lines.append(line)
        if query is not None:
            lines.append(
                f"pruned shards: {pruned if pruned else '(none)'} "
                f"of {self.num_shards}"
            )
        return lines

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
        and the single chosen plan serves both bounds.  A database of
        several segments adds them and which of them the query skips.
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
                index = self.get_index(chosen.name).index
                total = sum(
                    index.bitmaps_for_interval(name, interval, costing)
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
                lines.append("unit costs (measured): " + "; ".join(
                    f"{plan.index_name} "
                    f"{unit_costs(self.get_index(plan.index_name)).describe()}"
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
        the *whole table's*, so every row scores the same however many
        segments hold the rows.
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
        """Multi-line overview: table shape, indexes, query counts."""
        lines = [
            f"{type(self).__name__}: {self.num_records} records, "
            f"{len(self.schema.names)} attributes",
        ]
        lines.extend(f"  {line}" for line in self._shard_lines())
        served = self._query_counts
        if not self.index_names:
            lines.append("  indexes: (none; queries fall back to scan)")
        else:
            lines.append("  indexes:")
            for ix in self._segments[0].indexes.values():
                attrs = ", ".join(ix.attributes)
                count = served.get(ix.name, 0)
                lines.append(
                    f"    {ix.name} ({ix.kind}) on [{attrs}] — "
                    f"{count} quer{'y' if count == 1 else 'ies'} served"
                )
        if served.get("<scan>"):
            lines.append(f"  sequential scans: {served['<scan>']}")
        return "\n".join(lines)

    # -- the evaluation step ---------------------------------------------------

    def _evaluate(
        self, item, attached, index, estimate, semantics, shared_masks
    ) -> tuple:
        """The one evaluation step: ``item``'s ascending int64 ids per bound.

        ``index`` is ``attached``'s index, a window of it, or the scan
        (``attached`` None).  Bitmaps and VA-files answer every bound in
        one pass, other methods once per bound; a predicate with no tree
        evaluator runs the ground-truth evaluator.  A VA-file in a batch
        shares ``shared_masks`` across the batch's items.  The caller
        holds the tally and the item's trace.
        """
        label = attached.name if attached is not None else "<scan>"
        kind = attached.kind if attached is not None else "scan"
        query = isinstance(item, RangeQuery)
        observing = obs.enabled()
        track = None
        start = time.perf_counter_ns()
        with obs.trace_span(f"execute.{kind}", index=label) as span:
            if not query:
                if attached is None:
                    ids = tuple(
                        evaluate_predicate(self.table, item, bound)
                        for bound in semantics.bounds
                    )
                else:
                    ids = index.execute_predicate_bound_ids(item, semantics)
            elif isinstance(index, (BitmapIndex, VAFile)):
                track = OpCounter() if observing else None
                shared = (
                    {"shared_masks": shared_masks}
                    if isinstance(index, VAFile) else {}
                )
                ids = index.execute_bound_ids(
                    item, semantics, counter=track, **shared
                )
                if span is not None and track is not None:
                    span.set("actual_items", track.words_processed)
            else:
                ids = tuple(
                    np.asarray(index.execute_ids(item, bound), dtype=np.int64)
                    for bound in semantics.bounds
                )
        elapsed_ns = time.perf_counter_ns() - start
        if not query:
            if semantics is BOTH:
                obs.record("semantics.both_predicates")
            return ids
        with self._counts_lock:
            self._query_counts[label] = self._query_counts.get(label, 0) + 1
        if not observing:
            return ids
        obs.record("engine.queries")
        obs.record(f"engine.queries.{kind}")
        obs.observe(f"engine.query_ns.{kind}", elapsed_ns)
        obs.record(f"planner.plan_chosen.{kind}")
        if semantics is BOTH:
            # The estimate prices one bound, the tally covers the pair:
            # keep it out of the planner-accuracy counters.
            obs.record("semantics.both_queries")
            obs.record(
                "semantics.possible_only_rows", len(ids[-1]) - len(ids[0])
            )
        elif estimate is not None and track is not None:
            obs.observe("planner.predicted_ns", round(estimate.predicted_ns))
            obs.record("planner.estimated_items", round(estimate.items))
            obs.record("planner.actual_items", track.words_processed)
        return ids

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{ix.name}:{ix.kind}" for ix in self._segments[0].indexes.values()
        )
        return (
            f"{type(self).__name__}(records={self._num_records}, "
            f"attributes={len(self.schema.names)}, "
            f"shards={self.num_shards}, indexes=[{kinds}])"
        )
