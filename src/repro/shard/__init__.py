"""Partitioned storage and scatter-gather execution for incomplete tables.

See :mod:`repro.shard.sharded` for the execution model, and
``docs/sharding.md`` for the manifest format and partitioner guide.
"""

from repro.core.engine import ShardReportSlice
from repro.shard.executor import (
    SequentialShardExecutor,
    ShardExecutor,
    resolve_executor,
)
from repro.shard.manifest import MANIFEST_NAME, load_sharded, save_sharded
from repro.shard.partition import (
    PARTITIONERS,
    ContiguousPartitioner,
    MissingDensityPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    ShardAssignment,
    get_partitioner,
)
from repro.shard.sharded import ShardedDatabase

__all__ = [
    "ContiguousPartitioner",
    "MANIFEST_NAME",
    "MissingDensityPartitioner",
    "PARTITIONERS",
    "Partitioner",
    "RoundRobinPartitioner",
    "SequentialShardExecutor",
    "ShardAssignment",
    "ShardExecutor",
    "ShardReportSlice",
    "ShardedDatabase",
    "get_partitioner",
    "load_sharded",
    "resolve_executor",
    "save_sharded",
]
