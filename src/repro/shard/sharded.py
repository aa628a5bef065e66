"""Sharded incomplete database: row-range segments, read as one engine.

:class:`ShardedDatabase` is an ordered tuple of
:class:`~repro.core.engine.IncompleteDatabase` *segment* engines (the
API calls them shards): segment *k* owns the global rows
``[start_k, start_k + n_k)``.  Segments are the unit of writes, files,
hard links and pins (``repro.serve``, :mod:`repro.shard.manifest`); a read
never runs on them.  Every read of a snapshot runs the engine's one query
body (``_QuerySurface._run`` in :mod:`repro.core.engine`) on **one**
engine assembled from the segments on the first read:

* table columns and VA-file codes concatenate (a VA-file whose segments
  quantize differently is built over the joined table instead), and each
  segment is left holding views of its rows, so the rows are held once;
* each bitmap slot joins its segments' group arrays on its first read — a
  plain copy where segments are cut on 31-row group boundaries, as
  :func:`_row_ranges` cuts them, and a shift only at the seams a delete
  leaves; the planner prices that join as a decode;
* any other index kind is built over the joined table on first use.

So a query is planned once, evaluated once and shifts nothing.  The
segments' exact value histograms act as zone maps: when a range query can
match no row of the segments at either end, the chosen index evaluates
only the row *window* spanning the rest (whole 31-row groups of a WAH
bitmap; the VA-file and the scan take exact rows) and its ids shift by
the window's first row.  Histograms are exact, so this never changes
results.  Predicates are never pruned.

This module adds the segments, the assembly, the zone maps, DDL over every
segment and the lifecycle (close, freeze).
"""

from __future__ import annotations

import threading
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro import forksafe
from repro.bitmap.base import BitmapIndex
from repro.bitvector.wah import GROUP_BITS
from repro.core.engine import AttachedIndex, IncompleteDatabase, _QuerySurface
from repro.core.planner import semantics_for_costing
from repro.core.statistics import TableStatistics
from repro.dataset.table import IncompleteTable, concat_tables, join_tables
from repro.errors import ShardError
from repro.query.model import MissingSemantics, RangeQuery
from repro.vafile.vafile import VAFile

__all__ = ["ShardedDatabase"]


def _row_ranges(num_records: int, num_shards: int) -> list[range]:
    """The one layout: consecutive row ranges cut on 31-row group bounds.

    The table's 31-row WAH groups are split ``np.array_split``-style (the
    first ``groups % num_shards`` segments hold one group more) and the
    last segment ends at the last row, so every segment but the last
    holds whole groups and joined bitmaps concatenate without a shift.
    A table with fewer groups than segments is cut row by row instead.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    if num_records and num_shards > num_records:
        raise ShardError(
            f"cannot split {num_records} records into {num_shards} "
            f"non-empty shards"
        )
    groups = -(-num_records // GROUP_BITS)
    unit, units = (GROUP_BITS, groups) if num_shards <= groups else (1, num_records)
    size, extra = divmod(units, num_shards)
    bounds = [
        min(num_records, (k * size + min(k, extra)) * unit)
        for k in range(num_shards + 1)
    ]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class _Shard(NamedTuple):
    """One segment: the first global row id it owns and its engine."""

    shard_id: int
    start: int
    database: IncompleteDatabase


class _ZoneMaps:
    """Every segment's exact value histograms, as per-attribute prefix sums.

    ``prefix[name][k, v]`` counts segment *k*'s rows whose code is below
    ``v`` (code 0 is missing), so one query attribute checks every segment
    in a few array operations.
    """

    def __init__(self, statistics: Sequence[TableStatistics]):
        self._statistics = statistics
        self._prefix: dict[str, np.ndarray] = {}

    def _sums(self, name: str) -> np.ndarray | None:
        prefix = self._prefix.get(name)
        if prefix is None:
            try:
                counts = np.stack([
                    stats.attribute(name).counts for stats in self._statistics
                ])
            except Exception:
                return None
            prefix = np.zeros((counts.shape[0], counts.shape[1] + 1), np.int64)
            np.cumsum(counts, axis=1, out=prefix[:, 1:])
            self._prefix[name] = prefix
        return prefix

    def alive(self, query: RangeQuery, semantics: MissingSemantics) -> np.ndarray:
        """Per segment: can it hold a match (under the widest bound)?

        A segment is ruled out when, for some query attribute, it holds no
        row inside the interval (nor a missing one under
        ``missing-is-a-match``).  Unknown attributes and out-of-domain
        intervals rule nothing out, so an invalid query raises exactly as
        it would unpruned.
        """
        alive = np.ones(len(self._statistics), dtype=bool)
        for name, interval in query.items():
            prefix = self._sums(name)
            if prefix is None or interval.lo < 1 or interval.hi + 2 > prefix.shape[1]:
                continue
            possible = prefix[:, interval.hi + 1] - prefix[:, interval.lo]
            if semantics is MissingSemantics.IS_MATCH:
                possible = possible + prefix[:, 1]
            alive &= possible > 0
        return alive


def _check_executor(executor) -> None:
    """Accept only ``None`` and ``"sequential"`` for ``executor=``."""
    if executor is not None and executor != "sequential":
        raise ShardError(
            f"unknown shard executor {executor!r}; expected 'sequential' "
            f"or None (the same)"
        )


class ShardedDatabase(_QuerySurface):
    """An ordered tuple of segment engines, read as one assembled engine.

    Segment *k* owns the global rows ``[start_k, start_k + n_k)``, where
    ``start_k`` is the sum of the earlier segments' sizes.  The segments
    hold the same index set (DDL loops every segment; the loader attaches
    or rebuilds all) and are what writers rebuild, share and save.  Reads
    run on one engine assembled from them on the first read (see the
    module docstring).  Every entry point — ``execute`` /
    ``execute_batch`` / ``query_predicate`` / ``query`` / ``count`` /
    ``fetch`` / ``execute_ranked`` / ``explain`` / ``summary`` /
    ``choose_index`` / ``estimate_count`` — is the engine's own
    definition, inherited.

    Parameters
    ----------
    table:
        The full table.  Its rows are cut into ``num_shards`` consecutive
        ranges (:func:`_row_ranges`); each segment gets its own
        :class:`IncompleteDatabase` over a copy.
    num_shards:
        How many segments to create (``>= 1``; one segment is read
        directly, with nothing to assemble).
    executor:
        ``None`` or ``"sequential"``; anything else raises
        :class:`~repro.errors.ShardError`.  It selects nothing (a read
        runs on one engine) and is kept only because the benchmark
        harness passes it; it goes in a benchmark-only change.
    """

    def __init__(
        self,
        table: IncompleteTable,
        num_shards: int = 4,
        executor: str | None = None,
    ):
        _check_executor(executor)
        engines = [
            IncompleteDatabase(table.take(np.arange(rows.start, rows.stop)))
            for rows in _row_ranges(table.num_records, num_shards)
        ]
        self._setup(engines)

    def _setup(self, engines) -> None:
        self._shards: list[_Shard] = []
        start = 0
        for shard_id, engine in enumerate(engines):
            self._shards.append(_Shard(shard_id, start, engine))
            start += engine.num_records
        self._num_records = start
        self._starts = tuple(shard.start for shard in self._shards)
        self._plan_memo: dict[tuple, tuple] = {}
        self._assembled: IncompleteDatabase | None = None
        self._zone_maps: _ZoneMaps | None = None
        self._assembly_lock = threading.Lock()
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
        # A fork child must not inherit the assembly lock mid-held.
        self._assembly_lock = threading.Lock()

    @classmethod
    def _from_shards(
        cls,
        engines: Sequence[IncompleteDatabase],
    ) -> "ShardedDatabase":
        """Assemble from segment engines, in row order.

        Each engine's rows follow the previous engine's.  The loader
        (:mod:`repro.shard.manifest`) passes engines over the segment
        tables exactly as serialized, so loaded indexes stay aligned with
        their rows; the serving writer passes the current snapshot's
        engines, by reference, for every segment a mutation leaves alone.
        """
        self = cls.__new__(cls)
        self._setup(engines)
        return self

    # -- lifecycle -------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of segments."""
        return len(self._shards)

    @property
    def num_records(self) -> int:
        """Total records across all segments."""
        return self._num_records

    @property
    def table(self) -> IncompleteTable:
        """The whole table, concatenated from the segments on every call.

        Nothing keeps it: queries read the assembled engine's joined
        table, writes and telemetry the segments.
        """
        return concat_tables(*(shard.database.table for shard in self._shards))

    @property
    def statistics(self) -> TableStatistics:
        """Whole-table histograms: the segments' exact histograms, summed."""
        if self._statistics is None:
            self._statistics = TableStatistics.summed(
                [shard.database.statistics for shard in self._shards]
            )
        return self._statistics

    def _runs(self, ids) -> list[np.ndarray]:
        """Ascending global ``ids`` split at the segment starts: one run each."""
        ids = np.asarray(ids, dtype=np.int64)
        return np.split(ids, np.searchsorted(ids, self._starts[1:]))

    def _rows(self, ids: np.ndarray) -> IncompleteTable:
        """The rows with ascending global ``ids``, taken segment by segment."""
        return concat_tables(*(
            shard.database.table.take(run - shard.start)
            for shard, run in zip(self._shards, self._runs(ids))
        ))

    @property
    def shards(self) -> tuple[_Shard, ...]:
        """The segment holders, in segment-id order (read-only view)."""
        return tuple(self._shards)

    def close(self) -> None:
        """Close the database; reads then raise.

        Closing twice raises :class:`~repro.errors.ShardError` — a second
        ``close()`` means two owners think they hold the database, which is
        exactly the bug the error should surface.  The context-manager exit
        only closes a still-open database, so ``with`` blocks compose with
        an explicit early ``close()``.
        """
        if self._closed:
            raise ShardError(
                "this ShardedDatabase has already been closed"
            )
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise ShardError("this ShardedDatabase has been closed")

    def freeze(self) -> "ShardedDatabase":
        """Mark this database an immutable snapshot; returns ``self``.

        A frozen database still answers every query (and still assembles
        its reader), but index DDL raises :class:`~repro.errors.ShardError`.
        The serving layer freezes each database before publishing it as an
        epoch, so nothing can mutate state a pinned reader depends on —
        writers build a *new* database and publish that instead.
        """
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has made this a published snapshot."""
        return self._frozen

    def _ensure_mutable(self) -> None:
        if self._frozen:
            raise ShardError(
                "this ShardedDatabase is a frozen snapshot (published as "
                f"epoch {self.snapshot_epoch}); build a new snapshot "
                "instead of mutating it"
            )

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc) -> None:
        if not self._closed:
            self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedDatabase({self.num_records} records, "
            f"{self.num_shards} shards, "
            f"indexes={list(self.index_names)})"
        )

    # -- index management ------------------------------------------------------

    def create_index(
        self,
        name: str,
        kind: str,
        attributes: Iterable[str] | None = None,
        overwrite: bool = False,
        **options,
    ) -> AttachedIndex:
        """Build the same index on every segment (same name, kind, options).

        Returns the first segment's registry entry; name, kind, attributes
        and options are the same on every segment.
        """
        self._ensure_open()
        self._ensure_mutable()
        attached = [
            shard.database.create_index(
                name, kind, attributes, overwrite=overwrite, **options
            )
            for shard in self._shards
        ]
        self._reassemble()
        return attached[0]

    def drop_index(self, name: str) -> None:
        """Detach an index from every segment."""
        self._ensure_open()
        self._ensure_mutable()
        for shard in self._shards:
            shard.database.drop_index(name)
        self._reassemble()

    def _reassemble(self) -> None:
        """After DDL: plans and the assembled reader start over."""
        with self._assembly_lock:
            self._assembled = None
            self._plan_memo.clear()

    # -- the surface's reader ----------------------------------------------------

    _source = "shard"

    @property
    def _catalog(self) -> dict[str, AttachedIndex]:
        return self._shards[0].database._indexes

    def _reader(self) -> IncompleteDatabase:
        """The engine every read runs on, assembled on the first read.

        One segment is its own reader.  Otherwise the reader is an engine
        over the joined table (:func:`~repro.dataset.table.join_tables`)
        whose indexes :meth:`_attached` joins one by one.
        """
        self._ensure_open()
        engine = self._assembled
        if engine is None:
            if len(self._shards) == 1:
                return self._shards[0].database
            with self._assembly_lock:
                engine = self._assembled
                if engine is None:
                    engine = IncompleteDatabase(join_tables(
                        [shard.database.table for shard in self._shards]
                    ))
                    engine._statistics = self.statistics
                    self._assembled = engine
        return engine

    def _attached(self, name: str) -> AttachedIndex:
        """The reader's entry for ``name``, joined from the segments' on
        first use."""
        engine = self._reader()
        attached = engine._indexes.get(name)
        if attached is None:
            with self._assembly_lock:
                attached = engine._indexes.get(name)
                if attached is None:
                    attached = self._join_index(engine, name)
        return attached

    def _join_index(self, engine: IncompleteDatabase, name: str) -> AttachedIndex:
        spec = self._catalog[name]
        parts = [shard.database.get_index(name).index for shard in self._shards]
        index = None
        if isinstance(spec.index, BitmapIndex):
            index = type(spec.index).join(parts)
        elif isinstance(spec.index, VAFile):
            index = VAFile.join(parts, engine.table)
        if index is None:
            return engine.create_index(
                name, spec.kind, spec.attributes, **spec.options
            )
        return engine.attach_index(
            name, spec.kind, index, spec.attributes, options=spec.options
        )

    def _zone(self, item, semantics):
        """The row span a range query's surviving segments cover.

        ``(start, stop, skipped)``: the rows from the first to the last
        segment the zone maps leave the query, and the segments outside
        them (``start == stop`` when none survives); None when every
        segment survives, for a predicate, or with one segment.
        """
        if len(self._shards) < 2 or not isinstance(item, RangeQuery):
            return None
        if self._zone_maps is None:
            self._zone_maps = _ZoneMaps(
                [shard.database.statistics for shard in self._shards]
            )
        alive = self._zone_maps.alive(item, semantics_for_costing(semantics))
        if alive.all():
            return None
        survivors = np.flatnonzero(alive)
        if not len(survivors):
            return 0, 0, tuple(range(len(self._shards)))
        first, last = int(survivors[0]), int(survivors[-1])
        stop = (
            self._starts[last + 1] if last + 1 < len(self._starts)
            else self._num_records
        )
        skipped = tuple(
            k for k in range(len(self._shards)) if k < first or k > last
        )
        return self._starts[first], stop, skipped

    def _shard_lines(self, query=None, costing=None) -> list[str]:
        """What ``summary`` and (given a query) ``explain`` say of the segments."""
        lines = [
            f"{self.num_shards} shards (row-range segments, read as one engine)"
        ]
        zone = None if query is None else self._zone(query, costing)
        pruned = [] if zone is None else list(zone[2])
        for shard in self._shards:
            line = (
                f"  shard {shard.shard_id}: "
                f"{shard.database.num_records} records"
            )
            if shard.shard_id in pruned:
                line += " (pruned)"
            lines.append(line)
        if query is not None:
            lines.append(
                f"pruned shards: {pruned if pruned else '(none)'} "
                f"of {self.num_shards}"
            )
        return lines
