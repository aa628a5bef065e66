"""The executor handle a :class:`~repro.shard.sharded.ShardedDatabase` holds.

A sharded database answers every read on one engine assembled from its
segments (see :mod:`repro.shard.sharded`), so there is no per-shard work
to hand out and an executor evaluates nothing.  What is left is the
handle ``executor=`` still accepts — ``None`` / ``"sequential"`` or a
:class:`ShardExecutor` instance — which the database holds and closes with
itself (explicitly or, as a fallback, when it is collected).  The thread
and process backends that once fanned shard tasks out lost every gated
benchmark and were deleted (``EXPERIMENTS.md``, "Executor sweep" through
"The deciding run"); the inline fan-out went when segments replaced
shards ("Segments, not shards").
"""

from __future__ import annotations

from repro.errors import ShardError

__all__ = [
    "SequentialShardExecutor",
    "ShardExecutor",
    "resolve_executor",
]


class ShardExecutor:
    """The handle a :class:`ShardedDatabase` holds and closes.

    Executors hold no strong reference to the database, so
    ``weakref.finalize`` cleanup on the database can keep the executor
    alive without leaking the database.  ``close()`` must be idempotent;
    the database raises on double-close, its executor does not.
    """

    name = "?"

    def close(self) -> None:
        """Release whatever the executor holds (idempotent)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SequentialShardExecutor(ShardExecutor):
    """The built-in executor: reads run inline on the caller's thread."""

    name = "sequential"


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
