"""Sharded incomplete database: scatter-gather over row-range shards.

:class:`ShardedDatabase` is an ordered tuple of
:class:`~repro.core.engine.IncompleteDatabase` shard engines: shard *k*
owns the global rows ``[start_k, start_k + n_k)``.  The paper's bitmaps and
VA-file approximations are positional over record ids, so a row range
slices them with no translation.  It serves the engine's own query surface
(inherited, not repeated — see ``_QuerySurface`` in
:mod:`repro.core.engine`) by scatter-gather:

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
   sharded speedup comes from.
3. **Fan out.**  Surviving shards evaluate through a pluggable
   :class:`~repro.shard.executor.ShardExecutor` — by default inline, one
   shard after another on the caller's thread (see
   :mod:`repro.shard.executor`).  Exceptions re-raise unwrapped in the
   caller.
4. **Merge.**  Per-shard local record ids shift by the shard's ``start``
   and concatenate in shard order; every access method returns ascending
   ids, so the result is already ascending and bit-identical to the
   unsharded database under every missing semantics.

:meth:`ShardedDatabase._scatter` is the one body that does all four, for
``execute`` (one query), ``execute_batch`` (many) and ``query_predicate``
(one predicate: costed like a query, never pruned) alike.
"""

from __future__ import annotations

import time
import weakref
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import observability as obs
from repro.core.cache import DEFAULT_CACHE_BYTES
from repro.core.engine import (
    _BOUND_LABELS,
    AttachedIndex,
    IncompleteDatabase,
    QueryReport,
    ShardReportSlice,
    _as_query,
    _QuerySurface,
)
from repro.core.planner import semantics_for_costing
from repro.core.statistics import TableStatistics
from repro.dataset.table import IncompleteTable, concat_tables
from repro.errors import ShardError
from repro.observability.metrics import _query_tally
from repro.query.model import MissingSemantics, RangeQuery, resolve_semantics
from repro.shard.executor import ShardExecutor, ShardTask, resolve_executor

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


class _Shard:
    """One shard: the first global row id it owns and its engine."""

    __slots__ = ("shard_id", "start", "database")

    def __init__(self, shard_id: int, start: int, database: IncompleteDatabase):
        self.shard_id = shard_id
        self.start = start
        self.database = database

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Map shard-local record ids to global ids."""
        return np.asarray(local_ids, dtype=np.int64) + self.start


def _merge_ids(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-shard global ids, given in shard order.

    Shard *k*'s rows all precede shard *k + 1*'s and every access method
    returns ascending ids, so the concatenation is already ascending and
    bit-identical to the unsharded database's answer.
    """
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


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
    shard: this type adds the row ranges, the zone-map prune,
    :meth:`_scatter` and the merge, and keeps no registry, table or row-id
    map of its own — indexes and rows are read from the shard engines,
    which all hold the same index set (DDL loops every shard; the loader
    attaches or rebuilds all).  ``query`` / ``count`` / ``fetch`` /
    ``execute_ranked`` / ``explain`` / ``summary`` / ``choose_index`` /
    ``estimate_count`` are the engine's own definitions, inherited.

    Parameters
    ----------
    table:
        The full table.  Its rows are cut into ``num_shards`` consecutive
        ranges of ``np.array_split`` sizes; each shard gets its own
        :class:`IncompleteDatabase` (and sub-result cache) over a copy.
    num_shards:
        How many shards to create (``>= 1``; 1 shard degenerates to the
        unsharded engine plus the scatter-gather bookkeeping).
    cache_bytes:
        Per-shard sub-result cache budget.
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
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        executor: str | ShardExecutor | None = None,
    ):
        engines = [
            IncompleteDatabase(
                table.take(np.arange(rows.start, rows.stop)),
                cache_bytes=cache_bytes,
            )
            for rows in _row_ranges(table.num_records, num_shards)
        ]
        self._setup(engines, cache_bytes, executor)

    def _setup(self, engines, cache_bytes, executor) -> None:
        self._cache_bytes = cache_bytes
        self._shards: list[_Shard] = []
        start = 0
        for shard_id, engine in enumerate(engines):
            self._shards.append(_Shard(shard_id, start, engine))
            start += engine.num_records
        self._num_records = start
        self._partitions = tuple(shard.database for shard in self._shards)
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
        cache_bytes: int = DEFAULT_CACHE_BYTES,
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
        self._setup(engines, cache_bytes, executor)
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

    # -- pruning ---------------------------------------------------------------

    def _pruned(self, item, semantics: MissingSemantics) -> list[int]:
        """Ids of the shards that cannot hold a match of ``item``.

        A predicate is never pruned: a NOT over a pruned-out shard could
        still match.
        """
        if not isinstance(item, RangeQuery):
            return []
        return [
            shard.shard_id
            for shard in self._shards
            if not self._shard_can_match(shard, item, semantics)
        ]

    def _shard_can_match(
        self,
        shard: _Shard,
        query: RangeQuery,
        semantics: MissingSemantics,
    ) -> bool:
        """Exact zone-map check: can this shard contain any match?

        A shard is prunable when, for some query attribute, its exact value
        histogram shows zero records inside the interval (plus zero missing
        records under ``missing-is-a-match``).  Out-of-domain or unknown
        attributes are never pruned, so invalid queries surface the same
        :class:`~repro.errors.DomainError` / :class:`~repro.errors.QueryError`
        the unsharded engine raises.
        """
        statistics = shard.database.statistics
        for name, interval in query.items():
            try:
                attr = statistics.attribute(name)
            except Exception:
                return True
            if interval.lo < 1 or interval.hi > attr.cardinality:
                return True
            possible = int(attr.counts[interval.lo : interval.hi + 1].sum())
            if semantics is MissingSemantics.IS_MATCH:
                possible += int(attr.counts[0])
            if possible == 0:
                return False
        return True

    # -- execution -------------------------------------------------------------

    @_query_tally()
    def _scatter(
        self, items, semantics, using: str | None, trace: bool, batch: bool
    ) -> list[QueryReport]:
        """Plan, prune, fan out and merge ``items``; one report per item.

        The one scatter-gather body.  Each item is planned against the
        merged shard statistics and pruned under the widest requested bound
        (one plan serves every bound, and no possible match rules out a
        certain one); every shard with surviving work gets one
        :class:`~repro.shard.executor.ShardTask`; local ids shift by their
        shard's ``start`` and concatenate per bound.  Each report's
        ``elapsed_ns`` is its share of the call's wall clock: its own
        planning and merge plus the fan-out apportioned by shard task time
        (all of it for a single item).  When tracing, each report carries a
        ``sharded_query`` root whose children are its plan span and one
        subtree per executed shard.  The whole call, its shard tasks included, runs under one tally.
        """
        self._ensure_open()
        costing = semantics_for_costing(semantics)
        observing = obs.enabled()
        recorder = obs.get_recorder()
        # A predicate has no interval list for a workload record to hold.
        recording = (
            recorder.active and bool(items)
            and isinstance(items[0], RangeQuery)
        )
        tracing = trace or (recording and recorder.wants_trace)

        # Per shard: the positions, items and plan descriptors of its task.
        work: list[tuple[list, list, list]] = [
            ([], [], []) for _ in self._shards
        ]
        planned: list[tuple] = []
        num_pruned = 0
        for pos, item in enumerate(items):
            qtrace = (
                obs.QueryTrace(
                    "sharded_query",
                    query=repr(item),
                    semantics=semantics.value,
                    shards=self.num_shards,
                )
                if tracing
                else None
            )
            plan_start = time.perf_counter_ns()
            chosen, forced, estimates = self._resolve_plan(
                item, semantics, using
            )
            pruned_ids = self._pruned(item, costing)
            name = chosen.name if chosen else None
            for shard_id, (positions, task_items, plans) in enumerate(work):
                if shard_id not in pruned_ids:
                    positions.append(pos)
                    task_items.append(item)
                    plans.append((name, estimates[shard_id], forced))
            if qtrace is not None:
                with qtrace.span("plan") as plan_span:
                    plan_span.start_ns = plan_start
                    plan_span.set("chosen", name if name else "<scan>")
                    plan_span.set("forced", forced)
                    plan_span.set("pruned_shards", pruned_ids)
                    predicted = [
                        e.predicted_ns for e in estimates if e is not None
                    ]
                    if predicted:
                        plan_span.set("predicted_ns", round(sum(predicted)))
            num_pruned += len(pruned_ids)
            planned.append((
                chosen, pruned_ids, time.perf_counter_ns() - plan_start,
                qtrace,
            ))

        tasks = [
            ShardTask(
                shard_id, tuple(positions), tuple(task_items), tuple(plans),
                semantics, tracing,
            )
            for shard_id, (positions, task_items, plans) in enumerate(work)
            if positions
        ]
        fan_start = time.perf_counter_ns()
        outcomes = self._executor_impl.run(self, tasks)
        fan_ns = time.perf_counter_ns() - fan_start
        gathered: list[list[tuple]] = [[] for _ in items]
        total_task_ns = 0
        for task, outcome in zip(tasks, outcomes):
            shard = self._shards[task.shard_id]
            for pos, result in zip(task.positions, outcome.results):
                gathered[pos].append((shard, result))
                total_task_ns += result[1]
        if observing:
            if batch:
                obs.record("shard.batches")
                obs.record("shard.batch_queries", len(items))
            else:
                obs.record("shard.queries")
            obs.record("shard.pruned", num_pruned)
            obs.record("shard.fanout_tasks", len(tasks))
            obs.observe("shard.fanout_ns", fan_ns)

        reports = []
        for item, (chosen, pruned_ids, plan_ns, qtrace), results in zip(
            items, planned, gathered
        ):
            merge_start = time.perf_counter_ns()
            merged = tuple(
                _merge_ids([
                    shard.to_global(bound_ids[position])
                    for shard, (bound_ids, _, _) in results
                ])
                for position in range(len(semantics.bounds))
            )
            merge_ns = time.perf_counter_ns() - merge_start
            slices = {
                shard_id: ShardReportSlice(shard_id, True, 0, 0)
                for shard_id in pruned_ids
            }
            own_task_ns = 0
            for shard, (bound_ids, task_ns, trace_root) in results:
                slices[shard.shard_id] = ShardReportSlice(
                    shard.shard_id, False, len(bound_ids[-1]), task_ns
                )
                own_task_ns += task_ns
                if qtrace is not None and trace_root is not None:
                    trace_root.set("shard", shard.shard_id)
                    qtrace.root.children.append(trace_root)
            elapsed_ns = plan_ns + merge_ns
            if total_task_ns:
                elapsed_ns += fan_ns * own_task_ns // total_task_ns
            report = QueryReport(
                chosen.name if chosen else "<scan>",
                chosen.kind if chosen else "scan",
                merged,
                per_shard=tuple(slices[sid] for sid in sorted(slices)),
                trace=qtrace if trace else None,
                elapsed_ns=elapsed_ns,
            )
            if observing:
                obs.observe("shard.merge_ns", merge_ns)
                for _, (_, task_ns, _) in results:
                    obs.observe("shard.task_ns", task_ns)
                obs.observe("shard.skew", report.skew)
            if qtrace is not None:
                qtrace.root.set("index", report.index_name)
                for label, ids in zip(_BOUND_LABELS[len(merged)], merged):
                    qtrace.root.set(label, len(ids))
                qtrace.root.set("pruned", len(pruned_ids))
                qtrace.close()
            if recording:
                recorder.record_query(
                    source="shard",
                    batch=batch,
                    query=item,
                    semantics=semantics,
                    index=report.index_name,
                    kind=report.kind,
                    matches=len(merged[-1]),
                    elapsed_ns=elapsed_ns,
                    trace=qtrace,
                    shards_executed=len(results),
                    shards_pruned=len(pruned_ids),
                )
            reports.append(report)
        return reports

    def execute(
        self,
        query: RangeQuery | Mapping[str, tuple[int, int]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
        trace: bool = False,
    ) -> QueryReport:
        """Scatter-gather execution of one query (see :meth:`_scatter`).

        The report's ``per_shard`` has one slice per shard, pruned ones
        flagged; with ``trace=True`` it carries the ``sharded_query`` span
        tree; with ``semantics="both"`` each shard computes its (certain,
        possible) pair in one pass and the report carries both bounds.
        """
        return self._scatter(
            [_as_query(query)], resolve_semantics(semantics),
            using, trace, batch=False,
        )[0]

    def execute_batch(
        self,
        queries: Sequence[RangeQuery | Mapping[str, tuple[int, int]]],
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
        trace: bool = False,
    ) -> list[QueryReport]:
        """Scatter-gather execution of a workload, in submission order.

        Every distinct query is planned once at the sharded level; each
        shard then runs its surviving (un-pruned) slice of the workload
        through the engine's grouped batch executor with that shard's own
        sub-result cache (``semantics="both"`` included).  Reports have the
        same shape :meth:`execute` returns, traces and ``elapsed_ns`` too.
        """
        return self._scatter(
            [_as_query(q) for q in queries],
            resolve_semantics(semantics), using, trace, batch=True,
        )

    def query_predicate(
        self,
        predicate,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
    ) -> QueryReport:
        """Scatter-gather execution of a boolean predicate (AND/OR/NOT).

        Every shard evaluates the predicate against its own row slice on
        the one index picked up front (or a ground-truth scan); the merged
        result is bit-identical to the unsharded engine's
        :meth:`~repro.core.engine.IncompleteDatabase.query_predicate`.
        The pick is costed like a query's, summed over shards; predicates
        are never pruned — a NOT over a pruned-out shard could still match
        — so every shard executes.  With ``semantics="both"`` each shard
        evaluates the tree three-valued in one pass.
        """
        return self._scatter(
            [predicate], resolve_semantics(semantics), using,
            trace=False, batch=False,
        )[0]

    def _shard_lines(self, query=None, costing=None) -> list[str]:
        """What ``summary`` and (given a query) ``explain`` say of the shards."""
        lines = [
            f"{self.num_shards} shards (row ranges), "
            f"{self._executor_impl.name} executor"
        ]
        pruned = []
        for shard in self._shards:
            line = (
                f"  shard {shard.shard_id}: "
                f"{shard.database.num_records} records"
            )
            if query is not None and not self._shard_can_match(
                shard, query, costing
            ):
                pruned.append(shard.shard_id)
                line += " (pruned)"
            lines.append(line)
        if query is not None:
            lines.append(
                f"pruned shards: {pruned if pruned else '(none)'} "
                f"of {self.num_shards}"
            )
        return lines
