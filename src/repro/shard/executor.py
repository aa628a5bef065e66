"""The shard-fanout seam: one interface, one built-in backend.

:class:`~repro.shard.sharded.ShardedDatabase` plans and merges; *how* the
surviving shards evaluate their slice of the work is this module's job.
:class:`ShardExecutor` is the interface, and
:class:`SequentialShardExecutor` — evaluate shards one after another in the
caller's thread: zero setup, deterministic — is the one backend shipped.
The seam stays so a test can substitute a recording or failing fake, and
``executor=`` on :class:`~repro.shard.sharded.ShardedDatabase` accepts an
instance for that.

A shard task at this repository's scale is 0.1–1 ms of work, smaller than
a round trip to a worker process; the ``processes`` backend that tried it
won no gated benchmark and was deleted (``EXPERIMENTS.md``, "Executor
sweep" through "The deciding run", has every run).

Exactness contract: every executor returns word-identical record-id sets
under both missing semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.errors import ShardError
from repro.query.model import MissingSemantics, RangeQuery, ThreeValued

__all__ = [
    "SequentialShardExecutor",
    "ShardExecutor",
    "ShardOutcome",
    "ShardTask",
    "resolve_executor",
]


# -- task / outcome descriptors ------------------------------------------------
#
# Everything that crosses the executor seam is one of these two compact
# records.  Index objects never travel in them: tasks carry index *names*
# plus the pre-combined cost estimate, and :func:`_run_task` looks the index
# up in the shard's own engine.

@dataclass(frozen=True, slots=True)
class ShardTask:
    """One shard's surviving slice of a scatter-gather call.

    A single query is a one-position task; a predicate call is a task
    whose one item is a :class:`~repro.query.boolean.Predicate`.
    """

    shard_id: int
    #: Submission-order positions of the items this shard executes.
    positions: tuple[int, ...]
    #: The :class:`RangeQuery` (or predicate) at each position.
    items: tuple
    #: Per-position ``(index_name, estimate, forced)`` plan descriptors;
    #: ``index_name`` None is the scan fallback.
    plans: tuple[tuple, ...]
    #: Any resolved semantics, ``BOTH`` included; fixes the results' arity.
    semantics: MissingSemantics | ThreeValued
    trace: bool


@dataclass(frozen=True, slots=True)
class ShardOutcome:
    """One shard's answers to a :class:`ShardTask`, in position order."""

    shard_id: int
    #: Per-position ``(bound_ids, elapsed_ns, trace_root)``: shard-local
    #: record ids (ascending int64) one array per bound, the shard-side
    #: execution time, and the span tree when the task asked for tracing.
    results: tuple[tuple, ...] = field(repr=False)


# -- evaluation ----------------------------------------------------------------

def _run_task(database, task: ShardTask) -> ShardOutcome:
    """Evaluate one task against its shard's engine.

    A lone query runs direct and cache-free, exactly as the engine's own
    ``execute`` does; several run through the engine's grouped batch
    executor with the shard's sub-result cache.
    """
    # Plan descriptors resolved against the receiving engine's indexes.
    plans = [
        (database.get_index(name), estimate, forced)
        if name is not None
        else (None, None, False)
        for name, estimate, forced in task.plans
    ]
    if not isinstance(task.items[0], RangeQuery):
        reports = [
            database._execute_predicate(item, task.semantics, chosen)
            for item, (chosen, _, _) in zip(task.items, plans)
        ]
    elif len(task.items) == 1:
        reports = [database._execute_query(
            task.items[0],
            task.semantics,
            using=None,
            trace=task.trace,
            planned=plans[0],
            recorded=False,
        )]
    else:
        reports = database._run_planned_batch(
            list(task.items),
            plans,
            task.semantics,
            task.trace,
            database.sub_result_cache,
            recorded=False,
        )
    return ShardOutcome(task.shard_id, tuple(
        (
            tuple(np.asarray(ids, dtype=np.int64) for ids in r.bound_ids),
            r.elapsed_ns,
            r.trace.root if r.trace is not None else None,
        )
        for r in reports
    ))


# -- the executor interface ----------------------------------------------------

class ShardExecutor:
    """How a :class:`ShardedDatabase` evaluates its per-shard task list.

    Implementations receive the owning database on every call (executors
    hold no strong reference to it, so ``weakref.finalize`` cleanup on the
    database can keep the executor alive without leaking the database).
    ``close()`` must be idempotent; the database raises on double-close,
    its executor does not.
    """

    name = "?"

    def run(self, db, tasks) -> list[ShardOutcome]:
        """Evaluate the tasks (each non-empty); outcomes in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release whatever the executor holds (idempotent)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SequentialShardExecutor(ShardExecutor):
    """Evaluate every shard in the caller's thread, one after another."""

    name = "sequential"

    def run(self, db, tasks):
        obs.record("shard.sequential_fanouts")
        return [_run_task(db._shards[t.shard_id].database, t) for t in tasks]


# -- resolution ----------------------------------------------------------------

def resolve_executor(
    spec: str | ShardExecutor | None = None,
) -> ShardExecutor:
    """Turn an executor spec into an instance.

    A :class:`ShardExecutor` instance is itself; ``None`` or
    ``"sequential"`` is a fresh inline executor; anything else raises
    :class:`~repro.errors.ShardError`.
    """
    if isinstance(spec, ShardExecutor):
        return spec
    if spec is None or spec == "sequential":
        return SequentialShardExecutor()
    raise ShardError(
        f"unknown shard executor {spec!r}; expected 'sequential', None "
        f"(the same) or a ShardExecutor instance"
    )
