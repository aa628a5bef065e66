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
   thread), ``threads`` (worker-thread pool; the default), or
   ``processes`` (long-lived worker processes holding resident shard
   engines; see :mod:`repro.shard.executor`).  In-process worker
   exceptions re-raise unwrapped in the caller.
4. **Merge.**  Per-shard local record ids map through each shard's
   ``global_ids`` and concatenate; because shards partition the row space
   and every access method returns ascending ids, one final sort makes the
   result bit-identical to the unsharded database under both missing
   semantics.
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
from repro.shard.executor import (
    ShardBatchTask,
    ShardExecutor,
    ShardQueryTask,
    resolve_executor,
)
from repro.shard.partition import Partitioner, get_partitioner

__all__ = [
    "ShardReportSlice",
    "ShardedDatabase",
    "ShardedQueryReport",
    "ShardedThreeValuedReport",
]


@dataclass(frozen=True, slots=True)
class ShardReportSlice:
    """One shard's contribution to a sharded query."""

    shard_id: int
    #: True when the shard was skipped by statistics-based pruning.
    pruned: bool
    num_matches: int
    elapsed_ns: int


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


class _PerShardStats:
    """Per-shard slice statistics both sharded report types expose."""

    per_shard: tuple[ShardReportSlice, ...]

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


@dataclass(frozen=True)
class ShardedQueryReport(_PerShardStats):
    """Outcome of one scatter-gather query execution."""

    index_name: str
    kind: str
    #: Global record ids, ascending — bit-identical to the unsharded result.
    record_ids: np.ndarray = field(repr=False)
    per_shard: tuple[ShardReportSlice, ...] = ()
    trace: obs.QueryTrace | None = field(default=None, repr=False)
    elapsed_ns: int | None = None

    @property
    def num_matches(self) -> int:
        """Number of matching records across all shards."""
        return len(self.record_ids)

    def __repr__(self) -> str:
        return (
            f"ShardedQueryReport(index={self.index_name!r}, "
            f"matches={self.num_matches}, shards={len(self.per_shard)}, "
            f"pruned={self.num_pruned})"
        )


@dataclass(frozen=True)
class ShardedThreeValuedReport(_PerShardStats):
    """Outcome of one scatter-gather both-bounds (``semantics="both"``) query.

    Per-shard slices report the *possible* bound's match count (the pair's
    superset); shards pruned under the possible bound contribute to neither
    bound, since certain matches are a subset of possible matches.
    """

    index_name: str
    kind: str
    #: Global ids certain to match, ascending.
    certain_ids: np.ndarray = field(repr=False)
    #: Global ids that possibly match (superset of certain), ascending.
    possible_ids: np.ndarray = field(repr=False)
    per_shard: tuple[ShardReportSlice, ...] = ()
    trace: obs.QueryTrace | None = field(default=None, repr=False)
    elapsed_ns: int | None = None

    @property
    def num_certain(self) -> int:
        """Number of certain matches across all shards."""
        return len(self.certain_ids)

    @property
    def num_possible(self) -> int:
        """Number of possible matches across all shards."""
        return len(self.possible_ids)

    @property
    def possible_only_ids(self) -> np.ndarray:
        """Rows that are possible but not certain matches."""
        return np.setdiff1d(self.possible_ids, self.certain_ids)

    def __repr__(self) -> str:
        return (
            f"ShardedThreeValuedReport(index={self.index_name!r}, "
            f"certain={self.num_certain}, possible={self.num_possible}, "
            f"shards={len(self.per_shard)}, pruned={self.num_pruned})"
        )


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


def _sharded_report(
    index_name: str,
    kind: str,
    bound_ids: tuple[np.ndarray, ...],
    per_shard: tuple[ShardReportSlice, ...],
    trace: obs.QueryTrace | None = None,
    elapsed_ns: int | None = None,
) -> "ShardedQueryReport | ShardedThreeValuedReport":
    """The report type the answer's arity calls for."""
    common = dict(
        index_name=index_name, kind=kind, per_shard=per_shard,
        trace=trace, elapsed_ns=elapsed_ns,
    )
    if len(bound_ids) == 1:
        return ShardedQueryReport(record_ids=bound_ids[0], **common)
    certain_ids, possible_ids = bound_ids
    return ShardedThreeValuedReport(
        certain_ids=certain_ids, possible_ids=possible_ids, **common
    )


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
    parallel:
        Legacy fan-out switch: ``True`` picks the ``threads`` executor.
        Ignored when ``executor`` (or the ``REPRO_SHARD_EXECUTOR``
        environment variable) selects a backend.
    max_workers:
        Fan-out worker cap (threads or processes); must be ``>= 1``.
        Defaults to ``min(num_shards, 32)``.
    cache_bytes:
        Per-shard sub-result cache budget.
    executor:
        A :class:`~repro.shard.executor.ShardExecutor` instance or registry
        name (``"sequential"``, ``"threads"``, ``"processes"``).  ``None``
        consults ``REPRO_SHARD_EXECUTOR``, then ``parallel``; with none of
        the three given, shard tasks run inline on the caller's thread
        (``sequential``) — see ``docs/sharding.md`` for the measurement.
    """

    def __init__(
        self,
        table: IncompleteTable,
        num_shards: int = 4,
        partitioner: str | Partitioner = "contiguous",
        parallel: bool | None = None,
        max_workers: int | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        executor: str | ShardExecutor | None = None,
    ):
        self._table = table
        self._partitioner = get_partitioner(partitioner)
        self._assignment = self._partitioner.partition(table, num_shards)
        self._init_common(
            parallel, max_workers, cache_bytes, executor,
            self._assignment.num_shards,
        )
        self._shards: list[_Shard] = [
            _Shard(
                shard_id,
                ids,
                IncompleteDatabase(table.take(ids), cache_bytes=cache_bytes),
            )
            for shard_id, ids in enumerate(self._assignment.shards)
        ]

    def _init_common(
        self, parallel, max_workers, cache_bytes, executor, num_shards
    ) -> None:
        if max_workers is not None and max_workers < 1:
            # `max_workers or default` used to swallow 0 silently and run
            # with the default pool size; reject it loudly instead.
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers_explicit = max_workers is not None
        self._max_workers = (
            max_workers
            if max_workers is not None
            else min(num_shards, 32)
        )
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
        self._executor_impl = resolve_executor(executor, parallel)
        self._finalizer = weakref.finalize(
            self, _finalize_executor, self._executor_impl
        )

    @classmethod
    def _restore(
        cls,
        table: IncompleteTable,
        assignment,
        shard_tables,
        parallel: bool | None = None,
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
        self._init_common(
            parallel, max_workers, cache_bytes, executor,
            assignment.num_shards,
        )
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
        query: RangeQuery,
        semantics: MissingSemantics,
        using: str | None,
    ) -> tuple[str | None, bool, list[CostEstimate | None]]:
        """Chosen index name, forced flag, per-shard cost estimates."""
        if using is not None:
            meta = self._index_meta.get(using)
            if meta is None:
                raise ReproError(f"no index named {using!r}")
            if not meta.covers(query):
                raise QueryError(
                    f"index {using!r} does not cover attributes "
                    f"{sorted(set(query.attributes) - set(meta.attributes))}"
                )
            return using, True, [None] * self.num_shards
        chosen, _, per_shard = self._plan_sharded(query, semantics)
        return chosen, False, per_shard

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

    def execute(
        self,
        query,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
        trace: bool = False,
    ) -> ShardedQueryReport:
        """Scatter-gather execution of one query.

        Plans once against the merged shard statistics, prunes shards whose
        histograms rule out any match, fans the survivors out, and merges
        local ids back into one ascending global id array per bound.  With
        ``trace=True`` the report carries a root span whose children are the
        per-shard query traces (one subtree per executed shard, tagged with
        its shard id).  With ``semantics="both"`` the same task list carries
        ``BOTH`` to the shards, each computes its (certain, possible) pair in
        one pass, and a :class:`ShardedThreeValuedReport` comes back.
        Planning and pruning run under the widest requested bound: one plan
        serves the pair, and no possible match rules out a certain one.
        """
        self._ensure_open()
        query = self._normalize(query)
        semantics = resolve_semantics(semantics)
        costing = semantics_for_costing(semantics)
        start = time.perf_counter_ns()
        observing = obs.enabled()
        recorder = obs.get_recorder()
        recording = recorder.active
        tracing = trace or (recording and recorder.wants_trace)
        qtrace = (
            obs.QueryTrace(
                "sharded_query",
                query=repr(query),
                semantics=semantics.value,
                shards=self.num_shards,
            )
            if tracing
            else None
        )
        plan_start = time.perf_counter_ns()
        chosen, forced, per_shard_estimates = self._resolve_plan(
            query, costing, using
        )
        survivors: list[_Shard] = []
        pruned_ids: list[int] = []
        for shard in self._shards:
            if self._shard_can_match(shard, query, costing):
                survivors.append(shard)
            else:
                pruned_ids.append(shard.shard_id)
        if qtrace is not None:
            with qtrace.span("plan") as plan_span:
                plan_span.start_ns = plan_start
                plan_span.set("chosen", chosen if chosen else "<scan>")
                plan_span.set("forced", forced)
                plan_span.set("pruned_shards", pruned_ids)
        if observing:
            obs.record("shard.queries")
            obs.record("shard.pruned", len(pruned_ids))

        tasks = [
            ShardQueryTask(
                shard_id=shard.shard_id,
                query=query,
                semantics=semantics,
                index_name=chosen,
                estimate=per_shard_estimates[shard.shard_id],
                forced=forced,
                trace=tracing,
            )
            for shard in survivors
        ]
        fan_start = time.perf_counter_ns()
        outcomes = self._executor_impl.run_query_tasks(self, tasks)
        fan_ns = time.perf_counter_ns() - fan_start
        if observing:
            obs.record("shard.fanout_tasks", len(tasks))
        merge_start = time.perf_counter_ns()
        merged = tuple(
            _merge_ids([
                shard.to_global(outcome.bound_ids[position])
                for shard, outcome in zip(survivors, outcomes)
            ])
            for position in range(len(semantics.bounds))
        )
        merge_ns = time.perf_counter_ns() - merge_start

        slices = {
            shard_id: ShardReportSlice(shard_id, True, 0, 0)
            for shard_id in pruned_ids
        }
        for shard, outcome in zip(survivors, outcomes):
            slices[shard.shard_id] = ShardReportSlice(
                shard.shard_id,
                False,
                len(outcome.bound_ids[-1]),
                outcome.elapsed_ns,
            )
            if qtrace is not None and outcome.trace_root is not None:
                outcome.trace_root.set("shard", shard.shard_id)
                qtrace.root.children.append(outcome.trace_root)
        elapsed_ns = time.perf_counter_ns() - start
        if observing:
            obs.observe("shard.fanout_ns", fan_ns)
            obs.observe("shard.merge_ns", merge_ns)
            for outcome in outcomes:
                obs.observe("shard.task_ns", outcome.elapsed_ns)
        result = _sharded_report(
            chosen if chosen else "<scan>",
            self._index_meta[chosen].kind if chosen else "scan",
            merged,
            tuple(slices[shard_id] for shard_id in sorted(slices)),
            qtrace if trace else None,
            elapsed_ns,
        )
        if observing:
            obs.observe("shard.skew", result.skew)
        if qtrace is not None:
            qtrace.root.set("index", result.index_name)
            for label, bound_ids in zip(_BOUND_LABELS[len(merged)], merged):
                qtrace.root.set(label, len(bound_ids))
            qtrace.root.set("pruned", len(pruned_ids))
            qtrace.close()
        if recording:
            recorder.record_query(
                source="shard",
                batch=False,
                query=query,
                semantics=semantics,
                index=result.index_name,
                kind=result.kind,
                matches=len(merged[-1]),
                elapsed_ns=elapsed_ns,
                trace=qtrace,
                shards_executed=len(survivors),
                shards_pruned=len(pruned_ids),
            )
        return result

    def execute_batch(
        self,
        queries,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
        trace: bool = False,
    ) -> list[ShardedQueryReport]:
        """Scatter-gather execution of a workload.

        Every distinct query is planned once at the sharded level; each
        shard then runs its surviving (un-pruned) slice of the workload
        through the engine's grouped batch executor with that shard's own
        sub-result cache, and per-query results merge back in submission
        order.  ``semantics="both"`` takes the same path — the batch tasks
        carry ``BOTH``, so the per-shard caches and shared VA-file scans
        apply — and :class:`ShardedThreeValuedReport` objects come back.
        """
        self._ensure_open()
        normalized = [self._normalize(q) for q in queries]
        semantics = resolve_semantics(semantics)
        costing = semantics_for_costing(semantics)
        observing = obs.enabled()
        recorder = obs.get_recorder()
        plans = {}
        for query in normalized:
            if query not in plans:
                plans[query] = self._resolve_plan(query, costing, using)
        prunable = {}
        for query in plans:
            prunable[query] = [
                not self._shard_can_match(shard, query, costing)
                for shard in self._shards
            ]

        tasks = []
        for shard in self._shards:
            positions = tuple(
                pos
                for pos, query in enumerate(normalized)
                if not prunable[query][shard.shard_id]
            )
            sub_queries = tuple(normalized[pos] for pos in positions)
            sub_plans = []
            for query in sub_queries:
                chosen, forced, per_shard_estimates = plans[query]
                sub_plans.append(
                    (chosen, per_shard_estimates[shard.shard_id], forced)
                )
            tasks.append(ShardBatchTask(
                shard_id=shard.shard_id,
                positions=positions,
                queries=sub_queries,
                plans=tuple(sub_plans),
                semantics=semantics,
                trace=trace,
            ))

        fan_start = time.perf_counter_ns()
        outcomes = self._executor_impl.run_batch_tasks(self, tasks)
        fan_ns = time.perf_counter_ns() - fan_start
        if observing:
            obs.record("shard.fanout_tasks", len(tasks))

        arity = len(semantics.bounds)
        parts: list[tuple[list[np.ndarray], ...]] = [
            tuple([] for _ in range(arity)) for _ in normalized
        ]
        slices: list[dict[int, ShardReportSlice]] = [
            {} for _ in normalized
        ]
        for shard, outcome in zip(self._shards, outcomes):
            for pos, (bound_ids, task_ns) in zip(
                outcome.positions, outcome.results
            ):
                for bound_parts, ids in zip(parts[pos], bound_ids):
                    bound_parts.append(shard.to_global(ids))
                slices[pos][shard.shard_id] = ShardReportSlice(
                    shard.shard_id,
                    False,
                    len(bound_ids[-1]),
                    task_ns,
                )
        out: list[ShardedQueryReport] = []
        for pos, query in enumerate(normalized):
            chosen, _, _ = plans[query]
            for shard_id, was_pruned in enumerate(prunable[query]):
                if was_pruned:
                    slices[pos][shard_id] = ShardReportSlice(
                        shard_id, True, 0, 0
                    )
            merged = tuple(_merge_ids(p) for p in parts[pos])
            report = _sharded_report(
                chosen if chosen else "<scan>",
                self._index_meta[chosen].kind if chosen else "scan",
                merged,
                tuple(slices[pos][sid] for sid in sorted(slices[pos])),
            )
            if recorder.active:
                executed = [s for s in report.per_shard if not s.pruned]
                recorder.record_query(
                    source="shard",
                    batch=True,
                    query=query,
                    semantics=semantics,
                    index=report.index_name,
                    kind=report.kind,
                    matches=len(merged[-1]),
                    # No whole-query wall clock in the batched fan-out;
                    # the summed per-shard task time is the best proxy.
                    elapsed_ns=sum(s.elapsed_ns for s in executed),
                    shards_executed=len(executed),
                    shards_pruned=report.num_pruned,
                )
            out.append(report)
        if observing:
            obs.record("shard.batches")
            obs.record("shard.batch_queries", len(normalized))
            obs.observe("shard.fanout_ns", fan_ns)
            total_pruned = sum(
                sum(flags) for flags in prunable.values()
            )
            obs.record("shard.pruned", total_pruned)
        return out

    # -- conveniences ----------------------------------------------------------

    def query(
        self,
        query,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        using: str | None = None,
    ) -> ShardedQueryReport:
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
        report = self.execute(query, semantics, using)
        if isinstance(report, ShardedThreeValuedReport):
            return report.num_certain, report.num_possible
        return report.num_matches

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
    ) -> ShardedQueryReport:
        """Scatter-gather execution of a boolean predicate (AND/OR/NOT).

        Each shard evaluates the predicate against its own row slice (the
        engine picks a predicate-capable index or falls back to a scan);
        local ids map back through ``global_ids`` and merge sorted, so the
        result is bit-identical to the unsharded engine's
        :meth:`~repro.core.engine.IncompleteDatabase.query_predicate`.
        Predicates are not planned through the cost model or pruned — a
        NOT over a pruned-out shard could still match — so every shard
        executes.  With ``semantics="both"`` each shard evaluates the tree
        three-valued in one pass and a :class:`ShardedThreeValuedReport`
        comes back.
        """
        self._ensure_open()
        semantics = resolve_semantics(semantics)
        start = time.perf_counter_ns()
        parts = tuple([] for _ in semantics.bounds)
        slices = []
        names = set()
        kinds = set()
        for shard in self._shards:
            task_start = time.perf_counter_ns()
            report = shard.database.query_predicate(
                predicate, semantics, using=using
            )
            task_ns = time.perf_counter_ns() - task_start
            for bound_parts, ids in zip(parts, report.bound_ids):
                bound_parts.append(shard.to_global(ids))
            slices.append(ShardReportSlice(
                shard.shard_id, False, len(report.bound_ids[-1]), task_ns,
            ))
            names.add(report.index_name)
            kinds.add(report.kind)
        merged = tuple(_merge_ids(bound_parts) for bound_parts in parts)
        elapsed_ns = time.perf_counter_ns() - start
        if obs.enabled():
            obs.record("shard.queries")
            obs.record("shard.fanout_tasks", len(self._shards))
        return _sharded_report(
            names.pop() if len(names) == 1 else "<mixed>",
            kinds.pop() if len(kinds) == 1 else "mixed",
            merged,
            tuple(slices),
            elapsed_ns=elapsed_ns,
        )

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
