"""The shard-fanout seam: one interface, one built-in backend.

:class:`~repro.shard.sharded.ShardedDatabase` plans and merges (the
engine's one query body); *how* the surviving shards evaluate their
:class:`~repro.core.engine.ShardTask` is this module's job.
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

from repro import observability as obs
from repro.core.engine import ShardTask
from repro.errors import ShardError

__all__ = [
    "SequentialShardExecutor",
    "ShardExecutor",
    "ShardTask",
    "resolve_executor",
]


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

    def run(self, db, tasks: list[ShardTask]) -> list[list[tuple]]:
        """Evaluate the tasks (each non-empty), each on its shard engine.

        Returns, in task order, what the shard engine's partition step
        (``IncompleteDatabase._run_task``) returns for the task: one
        ``(bound_ids, elapsed_ns)`` per item.
        """
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
        return [db._partitions[t.shard_id]._run_task(t) for t in tasks]


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
