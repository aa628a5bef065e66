"""Sharded incomplete database: one query body over row-range shards.

:class:`ShardedDatabase` is an ordered tuple of
:class:`~repro.core.engine.IncompleteDatabase` shard engines: shard *k*
owns the global rows ``[start_k, start_k + n_k)``.  The paper's bitmaps and
VA-file approximations are positional over record ids, so a row range
slices them with no translation.  It serves the engine's own query surface
(inherited, not repeated — see ``_QuerySurface`` in
:mod:`repro.core.engine`), whose one body, ``_run``, does four steps for
``execute``, ``execute_batch`` and ``query_predicate`` alike:

1. **Plan once.**  Each shard prices every covering index at its own
   size (predicted time from measured unit costs, beside the paper's
   items); the sums go through the engine's one chooser,
   :func:`repro.core.planner.choose_plan`, so the whole fan-out executes
   one chosen index and no shard re-plans per query.  Range queries and
   predicates alike; plans are memoized as the engine's are.
2. **Prune.**  Per-shard exact value histograms
   (:class:`~repro.core.statistics.TableStatistics`) act as zone maps: a
   shard whose histogram shows zero possible matches for some query
   attribute is skipped entirely.  Histograms are exact, so pruning never
   changes results — on clustered data (e.g. after
   :func:`repro.dataset.reorder.lexicographic_order`) this is where the
   sharded speedup comes from.  Predicates are never pruned.
3. **Fan out.**  Every shard with surviving items gets one
   :class:`~repro.core.engine.ShardTask`, evaluated by the shard engine's
   partition step through a :class:`~repro.shard.executor.ShardExecutor` —
   inline, one shard after another on the caller's thread (see
   :mod:`repro.shard.executor`).  Exceptions re-raise unwrapped in the
   caller.
4. **Merge.**  Per-shard local record ids shift by the shard's ``start``
   and concatenate in shard order; every access method returns ascending
   ids, so the result is already ascending and bit-identical to the
   unsharded database under every missing semantics.

This module adds the row ranges, DDL over every shard, the executor seam
and the lifecycle (close, freeze) — nothing of the query path.
"""

from __future__ import annotations

import weakref
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.engine import AttachedIndex, IncompleteDatabase, _QuerySurface
from repro.core.statistics import TableStatistics
from repro.dataset.table import IncompleteTable, concat_tables
from repro.errors import ShardError
from repro.shard.executor import ShardExecutor, resolve_executor

__all__ = ["ShardedDatabase"]


def _row_ranges(num_records: int, num_shards: int) -> list[range]:
    """The one layout: ``np.array_split`` sizes, as consecutive row ranges.

    The first ``num_records % num_shards`` shards hold one row more than
    the rest.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    if num_records and num_shards > num_records:
        raise ShardError(
            f"cannot split {num_records} records into {num_shards} "
            f"non-empty shards"
        )
    size, extra = divmod(num_records, num_shards)
    bounds = [k * size + min(k, extra) for k in range(num_shards + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class _Shard(NamedTuple):
    """One shard: the first global row id it owns and its engine."""

    shard_id: int
    start: int
    database: IncompleteDatabase


def _finalize_executor(executor: ShardExecutor) -> None:
    """GC fallback: shut the fan-out executor down when the database drops.

    Referenced by ``weakref.finalize`` with the *executor* (never the
    database) as its argument, so the database itself stays collectible;
    whatever a custom executor holds is not leaked just because a caller
    forgot :meth:`ShardedDatabase.close`.
    """
    try:
        executor.close()
    except Exception:
        pass


class ShardedDatabase(_QuerySurface):
    """An ordered tuple of shard engines, queried by scatter-gather.

    Shard *k* owns the global rows ``[start_k, start_k + n_k)``, where
    ``start_k`` is the sum of the earlier shards' sizes.  The engine is the
    shard: this type adds the row ranges and the executor seam the one
    query body fans out through, and keeps no registry, table or row-id
    map of its own — indexes and rows are read from the shard engines,
    which all hold the same index set (DDL loops every shard; the loader
    attaches or rebuilds all).  Every entry point — ``execute`` /
    ``execute_batch`` / ``query_predicate`` / ``query`` / ``count`` /
    ``fetch`` / ``execute_ranked`` / ``explain`` / ``summary`` /
    ``choose_index`` / ``estimate_count`` — is the engine's own
    definition, inherited.

    Parameters
    ----------
    table:
        The full table.  Its rows are cut into ``num_shards`` consecutive
        ranges of ``np.array_split`` sizes; each shard gets its own
        :class:`IncompleteDatabase` (and sub-result cache) over a copy.
    num_shards:
        How many shards to create (``>= 1``; 1 shard answers as the
        unsharded engine does, through the executor seam).
    executor:
        A :class:`~repro.shard.executor.ShardExecutor` instance, or
        ``None`` / ``"sequential"`` for the one built-in backend: shard
        tasks run inline on the caller's thread — see ``docs/sharding.md``
        for the measurement.
    """

    def __init__(
        self,
        table: IncompleteTable,
        num_shards: int = 4,
        executor: str | ShardExecutor | None = None,
    ):
        engines = [
            IncompleteDatabase(table.take(np.arange(rows.start, rows.stop)))
            for rows in _row_ranges(table.num_records, num_shards)
        ]
        self._setup(engines, executor)

    def _setup(self, engines, executor) -> None:
        self._shards: list[_Shard] = []
        start = 0
        for shard_id, engine in enumerate(engines):
            self._shards.append(_Shard(shard_id, start, engine))
            start += engine.num_records
        self._num_records = start
        self._partitions = tuple(shard.database for shard in self._shards)
        self._starts = tuple(shard.start for shard in self._shards)
        self._plan_memo: dict[tuple, tuple] = {}
        self._closed = False
        #: Set by :meth:`freeze` once this database becomes a published
        #: MVCC snapshot; index DDL then raises instead of mutating state
        #: readers may have pinned.
        self._frozen = False
        #: Epoch number stamped by the serving layer's EpochManager when
        #: this database is published as a snapshot; None outside serving.
        self.snapshot_epoch: int | None = None
        self._executor_impl = resolve_executor(executor)
        self._finalizer = weakref.finalize(
            self, _finalize_executor, self._executor_impl
        )

    @classmethod
    def _from_shards(
        cls,
        engines: Sequence[IncompleteDatabase],
        executor: str | ShardExecutor | None = None,
    ) -> "ShardedDatabase":
        """Assemble from shard engines, in row order.

        Each engine's rows follow the previous engine's.  The loader
        (:mod:`repro.shard.manifest`) passes engines over the shard tables
        exactly as serialized, so loaded indexes stay aligned with their
        rows; the serving writer passes the current snapshot's engines, by
        reference, for every shard a mutation leaves alone.
        """
        self = cls.__new__(cls)
        self._setup(engines, executor)
        return self

    # -- lifecycle -------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def num_records(self) -> int:
        """Total records across all shards."""
        return self._num_records

    @property
    def table(self) -> IncompleteTable:
        """The whole table, concatenated from the shards on every call.

        Nothing keeps it: queries, writes and telemetry read the shards.
        """
        return concat_tables(*(shard.database.table for shard in self._shards))

    @property
    def statistics(self) -> TableStatistics:
        """Whole-table histograms: the shards' exact histograms, summed."""
        if self._statistics is None:
            self._statistics = TableStatistics.summed(
                [shard.database.statistics for shard in self._shards]
            )
        return self._statistics

    def _runs(self, ids) -> list[np.ndarray]:
        """Ascending global ``ids`` split at the shard starts: one run each."""
        ids = np.asarray(ids, dtype=np.int64)
        starts = [shard.start for shard in self._shards[1:]]
        return np.split(ids, np.searchsorted(ids, starts))

    def _rows(self, ids: np.ndarray) -> IncompleteTable:
        """The rows with ascending global ``ids``, taken shard by shard."""
        return concat_tables(*(
            shard.database.table.take(run - shard.start)
            for shard, run in zip(self._shards, self._runs(ids))
        ))

    @property
    def shards(self) -> tuple[_Shard, ...]:
        """The shard holders, in shard-id order (read-only view)."""
        return tuple(self._shards)

    @property
    def executor(self) -> ShardExecutor:
        """The fan-out backend serving this database."""
        return self._executor_impl

    def close(self) -> None:
        """Close the fan-out executor.

        Closing twice raises :class:`~repro.errors.ShardError` — a second
        ``close()`` means two owners think they hold the handle, which is
        exactly the bug the error should surface.  The context-manager exit
        only closes a still-open database, so ``with`` blocks compose with
        an explicit early ``close()``.
        """
        if self._closed:
            raise ShardError(
                "this ShardedDatabase has already been closed"
            )
        self._closed = True
        self._finalizer.detach()
        self._executor_impl.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ShardError("this ShardedDatabase has been closed")

    def freeze(self) -> "ShardedDatabase":
        """Mark this database an immutable snapshot; returns ``self``.

        A frozen database still answers every query (and its caches still
        fill), but index DDL raises :class:`~repro.errors.ShardError`.
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
        """Build the same index on every shard (same name, kind, options).

        Returns the first shard's registry entry; name, kind, attributes
        and options are the same on every shard.
        """
        self._ensure_open()
        self._ensure_mutable()
        attached = [
            shard.database.create_index(
                name, kind, attributes, overwrite=overwrite, **options
            )
            for shard in self._shards
        ]
        self._plan_memo.clear()
        return attached[0]

    def drop_index(self, name: str) -> None:
        """Detach an index from every shard."""
        self._ensure_open()
        self._ensure_mutable()
        for shard in self._shards:
            shard.database.drop_index(name)
        self._plan_memo.clear()

    # -- execution -------------------------------------------------------------

    _source = "shard"

    def _fan_out(self, tasks):
        """Hand each shard its task through the executor seam."""
        self._ensure_open()
        return self._executor_impl.run(self, tasks)

    def _shard_lines(self, query=None, costing=None) -> list[str]:
        """What ``summary`` and (given a query) ``explain`` say of the shards."""
        lines = [
            f"{self.num_shards} shards (row ranges), "
            f"{self._executor_impl.name} executor"
        ]
        pruned = [] if query is None else self._pruned(query, costing)
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
