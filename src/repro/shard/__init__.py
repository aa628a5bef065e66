"""Partitioned storage and scatter-gather execution for incomplete tables.

See :mod:`repro.shard.sharded` for the execution model, and
``docs/sharding.md`` for the row-range layout and the manifest format.
"""

from repro.core.engine import ShardReportSlice
from repro.shard.executor import (
    SequentialShardExecutor,
    ShardExecutor,
    resolve_executor,
)
from repro.shard.manifest import MANIFEST_NAME, load_sharded, save_sharded
from repro.shard.sharded import ShardedDatabase

__all__ = [
    "MANIFEST_NAME",
    "SequentialShardExecutor",
    "ShardExecutor",
    "ShardReportSlice",
    "ShardedDatabase",
    "load_sharded",
    "resolve_executor",
    "save_sharded",
]
