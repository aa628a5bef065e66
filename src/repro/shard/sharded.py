"""Sharded incomplete database: scatter-gather over row-range shards.

:class:`ShardedDatabase` partitions an
:class:`~repro.dataset.table.IncompleteTable` into N row-range shards (see
:mod:`repro.shard.partition`), owns one
:class:`~repro.core.engine.IncompleteDatabase` per shard, and serves the
same query API by scatter-gather:

1. **Plan once.**  Per-shard plan rankings are merged with
   :func:`repro.core.planner.combine_shard_estimates`, so the whole fan-out
   executes one chosen index and no shard re-plans (or re-reads size
   reports) per query.
2. **Prune.**  Per-shard exact value histograms
   (:class:`~repro.core.statistics.TableStatistics`) act as zone maps: a
   shard whose histogram shows zero possible matches for some query
   attribute is skipped entirely.  Histograms are exact, so pruning never
   changes results — on clustered data (e.g. after
   :func:`repro.dataset.reorder.lexicographic_order`) this is where the
   sharded speedup comes from.
3. **Fan out.**  Surviving shards evaluate through a pluggable
   :class:`~repro.shard.executor.ShardExecutor` — ``sequential`` (caller's
   thread; the default) or ``processes`` (long-lived worker processes
   holding resident shard engines; see :mod:`repro.shard.executor`).
   In-process exceptions re-raise unwrapped in the caller.
4. **Merge.**  Per-shard local record ids map through each shard's
   ``global_ids`` and concatenate; because shards partition the row space
   and every access method returns ascending ids, one final sort makes the
   result bit-identical to the unsharded database under both missing
   semantics.

:meth:`ShardedDatabase._scatter` is the one body that does all four, for
``execute`` (one query), ``execute_batch`` (many) and ``query_predicate``
(one predicate: never costed, never pruned) alike.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.cache import DEFAULT_CACHE_BYTES, CacheStats
from repro.core.engine import (
    _BOUND_LABELS,
    _PREFERENCE,
    IncompleteDatabase,
    QueryReport,
    RankedReport,
    ShardReportSlice,
    rank_both_bounds,
)
from repro.core.planner import (
    CostEstimate,
    combine_shard_estimates,
    rank_plans,
    semantics_for_costing,
)
from repro.core.statistics import TableStatistics
from repro.dataset.table import IncompleteTable
from repro.errors import QueryError, ReproError, ShardError
from repro.query.model import (
    BOTH,
    MissingSemantics,
    RangeQuery,
    resolve_semantics,
)
from repro.shard.executor import ShardExecutor, ShardTask, resolve_executor
from repro.shard.partition import Partitioner, get_partitioner

__all__ = ["ShardedDatabase"]


@dataclass(frozen=True, slots=True)
class _IndexMeta:
    """Shard-level record of a fanned-out index registration."""

    kind: str
    attributes: tuple[str, ...]
    #: Constructor options the index was created with; the serving layer's
    #: writer path uses these to recreate the same index set on the next
    #: snapshot.  Empty for indexes attached without recorded options.
    options: dict = field(default_factory=dict)

    def covers(self, query: RangeQuery) -> bool:
        return set(query.attributes) <= set(self.attributes)


class _Shard:
    """One shard: its global row ids and the database over its row slice."""

    __slots__ = ("shard_id", "global_ids", "database")

    def __init__(
        self,
        shard_id: int,
        global_ids: np.ndarray,
        database: IncompleteDatabase,
    ):
        self.shard_id = shard_id
        self.global_ids = global_ids
        self.database = database

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Map shard-local record ids back to global ids."""
        return self.global_ids[np.asarray(local_ids, dtype=np.int64)]


def _merge_ids(parts: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-shard global ids and sort them ascending.

    Shards partition the row space and every access method returns
    ascending ids, so one sort makes the result bit-identical to the
    unsharded database's.
    """
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(parts))


def _finalize_executor(executor: ShardExecutor) -> None:
    """GC fallback: shut the fan-out executor down when the database drops.

    Referenced by ``weakref.finalize`` with the *executor* (never the
    database) as its argument, so the database itself stays collectible;
    process workers and shared-memory segments are too expensive to leak
    just because a caller forgot :meth:`ShardedDatabase.close`.
    """
    try:
        executor.close()
    except Exception:
        pass


class ShardedDatabase:
    """N-shard partitioned :class:`IncompleteDatabase` with scatter-gather.

    Parameters
    ----------
    table:
        The full table.  Rows are split by ``partitioner`` and each shard
        gets its own :class:`IncompleteDatabase` (and therefore its own
        namespaced sub-result cache).
    num_shards:
        How many shards to create (``>= 1``; 1 shard degenerates to the
        unsharded engine plus the scatter-gather bookkeeping).
    partitioner:
        A :class:`~repro.shard.partition.Partitioner` instance or registry
        name (``"contiguous"``, ``"round-robin"``, ``"missing-density"``).
    max_workers:
        Worker-process cap for the ``processes`` executor; must be
        ``>= 1``.  Defaults to one per core, at most one per shard.
    cache_bytes:
        Per-shard sub-result cache budget.
    executor:
        A :class:`~repro.shard.executor.ShardExecutor` instance or registry
        name (``"sequential"``, ``"processes"``).  ``None`` consults
        ``REPRO_SHARD_EXECUTOR``; with neither given, shard tasks run
        inline on the caller's thread (``sequential``) — see
        ``docs/sharding.md`` for the measurement.
    """

    def __init__(
        self,
        table: IncompleteTable,
        num_shards: int = 4,
        partitioner: str | Partitioner = "contiguous",
        max_workers: int | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        executor: str | ShardExecutor | None = None,
    ):
        self._table = table
        self._partitioner = get_partitioner(partitioner)
        self._assignment = self._partitioner.partition(table, num_shards)
        self._init_common(max_workers, cache_bytes, executor)
        self._shards: list[_Shard] = [
            _Shard(
                shard_id,
                ids,
                IncompleteDatabase(table.take(ids), cache_bytes=cache_bytes),
            )
            for shard_id, ids in enumerate(self._assignment.shards)
        ]

    def _init_common(self, max_workers, cache_bytes, executor) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = max_workers
        self._cache_bytes = cache_bytes
        #: Whole-table statistics, built lazily for the ranked answer mode.
        self._stats: TableStatistics | None = None
        self._index_meta: dict[str, _IndexMeta] = {}
        self._plan_memo: dict[tuple, tuple] = {}
        #: Bumped on every create/drop/attach so process workers can fence
        #: staleness even when an index is replaced by an equal-looking one.
        self._index_epoch = 0
        #: Per-shard on-disk paths recorded by the manifest loader; lets
        #: the process executor bootstrap workers by memory-mapping files.
        self._storage: dict[int, dict] | None = None
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
    def _restore(
        cls,
        table: IncompleteTable,
        assignment,
        shard_tables,
        max_workers: int | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        executor: str | ShardExecutor | None = None,
    ) -> "ShardedDatabase":
        """Rebuild from a persisted assignment (see :mod:`repro.shard.manifest`).

        ``shard_tables`` are the per-shard tables exactly as serialized —
        using them instead of re-slicing keeps loaded indexes aligned with
        the rows they were built over.
        """
        self = cls.__new__(cls)
        self._table = table
        self._partitioner = None
        self._assignment = assignment
        self._init_common(max_workers, cache_bytes, executor)
        self._shards = [
            _Shard(
                shard_id,
                ids,
                IncompleteDatabase(shard_table, cache_bytes=cache_bytes),
            )
            for shard_id, (ids, shard_table) in enumerate(
                zip(assignment.shards, shard_tables)
            )
        ]
        return self

    # -- lifecycle -------------------------------------------------------------

    @property
    def table(self) -> IncompleteTable:
        """The full (unsharded) table."""
        return self._table

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def num_records(self) -> int:
        """Total records across all shards."""
        return self._table.num_records

    @property
    def partitioner_name(self) -> str:
        """Registry name of the partitioner that built the shards."""
        return self._assignment.partitioner

    @property
    def shards(self) -> tuple[_Shard, ...]:
        """The shard holders, in shard-id order (read-only view)."""
        return tuple(self._shards)

    @property
    def executor(self) -> ShardExecutor:
        """The fan-out backend serving this database."""
        return self._executor_impl

    @property
    def statistics(self) -> TableStatistics:
        """Whole-table (unsharded) statistics, built lazily."""
        if self._stats is None:
            self._stats = TableStatistics(self._table)
        return self._stats

    def close(self) -> None:
        """Shut down the fan-out executor (pool, processes, shared memory).

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
            f"{self.num_shards} shards via {self.partitioner_name!r}, "
            f"indexes={sorted(self._index_meta)})"
        )

    # -- index management ------------------------------------------------------

    def create_index(
        self,
        name: str,
        kind: str,
        attributes=None,
        overwrite: bool = False,
        **options,
    ) -> None:
        """Build the same index on every shard (same name, kind, options)."""
        self._ensure_open()
        self._ensure_mutable()
        attached = None
        for shard in self._shards:
            attached = shard.database.create_index(
                name, kind, attributes, overwrite=overwrite, **options
            )
        self._index_meta[name] = _IndexMeta(
            kind=attached.kind, attributes=attached.attributes,
            options=dict(options),
        )
        self._plan_memo.clear()
        self._index_epoch += 1

    def drop_index(self, name: str) -> None:
        """Detach an index from every shard."""
        self._ensure_open()
        self._ensure_mutable()
        if name not in self._index_meta:
            raise ReproError(f"no index named {name!r}")
        for shard in self._shards:
            shard.database.drop_index(name)
        del self._index_meta[name]
        self._plan_memo.clear()
        self._index_epoch += 1

    def _attach_shard_indexes(
        self, name: str, kind: str, attributes, options=None
    ) -> None:
        """Record an index registered shard-by-shard (manifest loader)."""
        self._index_meta[name] = _IndexMeta(
            kind=kind, attributes=tuple(attributes),
            options=dict(options or {}),
        )
        self._plan_memo.clear()
        self._index_epoch += 1

    @property
    def index_names(self) -> list[str]:
        """Names of the fanned-out indexes, sorted."""
        return sorted(self._index_meta)

    # -- planning --------------------------------------------------------------

    def _plan_sharded(
        self, query: RangeQuery, semantics: MissingSemantics
    ) -> tuple[str | None, list[CostEstimate], list[CostEstimate | None]]:
        """Whole-database plan: (chosen name, merged ranking, per-shard picks).

        Per-shard rankings are merged with
        :func:`~repro.core.planner.combine_shard_estimates`; when no index
        is costable on every shard the engine's static preference order
        breaks the tie, and with no covering index at all the scan fallback
        (``None``) is chosen.  Memoized per ``(query, semantics)`` until the
        index set changes.
        """
        key = (query, semantics)
        memo = self._plan_memo.get(key)
        if memo is not None:
            return memo
        covering = [
            name
            for name, meta in self._index_meta.items()
            if meta.covers(query)
        ]
        if not covering:
            result = (None, [], [None] * self.num_shards)
            self._plan_memo[key] = result
            return result
        per_shard_rankings = [
            rank_plans(
                [shard.database.get_index(n) for n in covering],
                query,
                semantics,
            )
            for shard in self._shards
        ]
        merged = combine_shard_estimates(per_shard_rankings)
        if merged:
            chosen = merged[0].index_name
        else:
            rank = {kind: pos for pos, kind in enumerate(_PREFERENCE)}
            chosen = min(
                covering,
                key=lambda n: rank.get(
                    self._index_meta[n].kind, len(rank)
                ),
            )
        per_shard_estimates: list[CostEstimate | None] = [
            next((p for p in plans if p.index_name == chosen), None)
            for plans in per_shard_rankings
        ]
        if len(self._plan_memo) > 4096:
            self._plan_memo.clear()
        result = (chosen, merged, per_shard_estimates)
        self._plan_memo[key] = result
        return result

    def _resolve_plan(
        self,
        item,
        costing: MissingSemantics,
        using: str | None,
    ) -> tuple[str | None, bool, list[CostEstimate | None], list[int]]:
        """Chosen index name, forced flag, per-shard estimates, pruned ids.

        A predicate is neither costed nor pruned (a NOT over a pruned-out
        shard could still match): shard 0 picks by the engine's static
        preference order, and every shard holds the same index set.
        """
        no_estimates = [None] * self.num_shards
        if not isinstance(item, RangeQuery):
            chosen = self._shards[0].database._plan_predicate(item, using)
            return (
                chosen.name if chosen else None,
                using is not None,
                no_estimates,
                [],
            )
        if using is None:
            chosen, _, estimates = self._plan_sharded(item, costing)
        else:
            meta = self._index_meta.get(using)
            if meta is None:
                raise ReproError(f"no index named {using!r}")
            if not meta.covers(item):
                raise QueryError(
                    f"index {using!r} does not cover attributes "
                    f"{sorted(set(item.attributes) - set(meta.attributes))}"
                )
            chosen, estimates = using, no_estimates
        pruned = [
            shard.shard_id
            for shard in self._shards
            if not self._shard_can_match(shard, item, costing)
        ]
        return chosen, using is not None, estimates, pruned

    # -- pruning ---------------------------------------------------------------

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

    @staticmethod
    def _normalize(query) -> RangeQuery:
        return (
            query
            if isinstance(query, RangeQuery)
            else RangeQuery.from_bounds(query)
        )

    def _scatter(
        self, items, semantics, using: str | None, trace: bool, batch: bool
    ) -> list[QueryReport]:
        """Plan, prune, fan out and merge ``items``; one report per item.

        The one scatter-gather body.  Each item is planned against the
        merged shard statistics and pruned under the widest requested bound
        (one plan serves every bound, and no possible match rules out a
        certain one); every shard with surviving work gets one
        :class:`~repro.shard.executor.ShardTask`; local ids map back through
        ``global_ids`` and merge per bound.  Each report's ``elapsed_ns`` is
        its share of the call's wall clock: its own planning and merge plus
        the fan-out apportioned by shard task time (all of it for a single
        item).  When tracing, each report carries a ``sharded_query`` root
        whose children are its plan span and one subtree per executed shard.
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
            chosen, forced, estimates, pruned_ids = self._resolve_plan(
                item, costing, using
            )
            for shard_id, (positions, task_items, plans) in enumerate(work):
                if shard_id not in pruned_ids:
                    positions.append(pos)
                    task_items.append(item)
                    plans.append((chosen, estimates[shard_id], forced))
            if qtrace is not None:
                with qtrace.span("plan") as plan_span:
                    plan_span.start_ns = plan_start
                    plan_span.set("chosen", chosen if chosen else "<scan>")
                    plan_span.set("forced", forced)
                    plan_span.set("pruned_shards", pruned_ids)
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
                chosen if chosen else "<scan>",
                self._index_meta[chosen].kind if chosen else "scan",
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
        query,
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
            [self._normalize(query)], resolve_semantics(semantics),
            using, trace, batch=False,
        )[0]

    def execute_batch(
        self,
        queries,
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
            [self._normalize(q) for q in queries],
            resolve_semantics(semantics), using, trace, batch=True,
        )

    # -- conveniences ----------------------------------------------------------

    def query(
        self,
        query,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
    ) -> QueryReport:
        """Alias of :meth:`execute` without tracing."""
        return self.execute(query, semantics, using)

    def count(
        self,
        query,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
    ):
        """Number of records matching a query, summed across shards.

        With ``semantics="both"`` returns the ``(certain, possible)``
        count pair instead of a single int.
        """
        counts = tuple(
            len(ids) for ids in self.execute(query, semantics, using).bound_ids
        )
        return counts[0] if len(counts) == 1 else counts

    def fetch(
        self,
        query,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
    ) -> IncompleteTable:
        """Materialize the matching rows (global order) as a new table.

        Requires a single semantics: a both-bounds answer is two row sets,
        so there is no one table to materialize — fetch the bound you want.
        """
        semantics = resolve_semantics(semantics)
        if semantics is BOTH:
            raise QueryError(
                "fetch needs a single semantics ('is_match' or 'not_match'); "
                "a both-bounds answer has two row sets"
            )
        report = self.execute(query, semantics, using)
        return self._table.take(report.record_ids)

    def execute_ranked(
        self,
        query,
        threshold: float = 0.0,
        limit: int | None = None,
        using: str | None = None,
    ) -> RankedReport:
        """Probabilistic answers across all shards, ranked by match chance.

        Runs the both-bounds scatter-gather, then scores possible-only rows
        against the *whole-table* value histograms (so probabilities match
        the unsharded engine's bit-for-bit regardless of how rows were
        partitioned).  Same contract as
        :meth:`~repro.core.engine.IncompleteDatabase.execute_ranked`.
        """
        query = self._normalize(query)
        report = self.execute(query, BOTH, using)
        ids, probabilities, num_certain = rank_both_bounds(
            self._table,
            self.statistics,
            query,
            report.certain_ids,
            report.possible_ids,
            threshold,
            limit,
        )
        if obs.enabled():
            obs.record("semantics.ranked_queries")
        return RankedReport(
            index_name=report.index_name,
            kind=report.kind,
            record_ids=ids,
            probabilities=probabilities,
            num_certain=num_certain,
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
        Predicates are not planned through the cost model or pruned — a
        NOT over a pruned-out shard could still match — so every shard
        executes.  With ``semantics="both"`` each shard evaluates the tree
        three-valued in one pass.
        """
        return self._scatter(
            [predicate], resolve_semantics(semantics), using,
            trace=False, batch=False,
        )[0]

    def explain(
        self,
        query,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
    ) -> str:
        """Human-readable sharded plan: merged costs plus pruning decisions."""
        query = self._normalize(query)
        semantics = resolve_semantics(semantics)
        costing = semantics_for_costing(semantics)
        chosen, merged, _ = self._plan_sharded(query, costing)
        lines = [
            f"ShardedQuery: {query!r}",
            f"  semantics: {semantics.value}",
            f"  shards: {self.num_shards} ({self.partitioner_name})",
        ]
        if semantics is BOTH:
            lines.append(
                "  bounds: one plan, costed under is_match (superset bound)"
            )
        if merged:
            lines.append("  merged plans (items summed over shards):")
            for estimate in merged:
                marker = "->" if estimate.index_name == chosen else "  "
                lines.append(
                    f"   {marker} {estimate.index_name} "
                    f"({estimate.kind}): {estimate.items:,.0f} items "
                    f"[{estimate.detail}]"
                )
        elif chosen is not None:
            lines.append(
                f"  chosen by preference order: {chosen} "
                f"({self._index_meta[chosen].kind})"
            )
        else:
            lines.append("  no covering index; sequential scan per shard")
        pruned = [
            shard.shard_id
            for shard in self._shards
            if not self._shard_can_match(shard, query, costing)
        ]
        lines.append(
            f"  pruned shards: {pruned if pruned else '(none)'} "
            f"of {self.num_shards}"
        )
        return "\n".join(lines)

    # -- introspection ---------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Aggregate sub-result cache stats summed across shards."""
        totals = [shard.database.sub_result_cache.stats() for shard in self._shards]
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
        """Drop cached sub-results on every shard; returns entries dropped."""
        return sum(
            shard.database.invalidate_cache(index_name)
            for shard in self._shards
        )

    def summary(self) -> str:
        """Multi-line overview: shards, per-shard sizes, indexes, caches."""
        from repro.bitvector.kernels import get_backend

        lines = [
            f"ShardedDatabase: {self.num_records} records in "
            f"{self.num_shards} shards ({self.partitioner_name}), "
            f"{len(self._table.schema.names)} attributes",
            f"  bitvector kernels: {get_backend().name} backend",
            f"  fan-out executor: {self._executor_impl.name}",
        ]
        if not self._index_meta:
            lines.append("  indexes: (none; queries fall back to scan)")
        else:
            lines.append("  indexes (fanned out to every shard):")
            for name in sorted(self._index_meta):
                meta = self._index_meta[name]
                attrs = ", ".join(meta.attributes)
                lines.append(f"    {name} ({meta.kind}) on [{attrs}]")
        for shard in self._shards:
            lines.append(
                f"  shard {shard.shard_id}: "
                f"{shard.database.table.num_records} records"
            )
        stats = self.cache_stats()
        lines.append(
            f"  sub-result caches ({self.num_shards} shards): "
            f"{stats.entries} entries, {stats.bytes} bytes, "
            f"hit rate {stats.hit_rate:.1%} "
            f"({stats.hits} hits / {stats.misses} misses)"
        )
        return "\n".join(lines)
