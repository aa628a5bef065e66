"""Saving and loading databases, and cutting a table into segments.

See :mod:`repro.core.segment` for the segment record and
``docs/sharding.md`` for the segment layout and the manifest format.
"""

from repro.core.engine import ShardReportSlice
from repro.shard.manifest import MANIFEST_NAME, load_sharded, save_sharded
from repro.shard.sharded import ShardedDatabase

__all__ = [
    "MANIFEST_NAME",
    "ShardReportSlice",
    "ShardedDatabase",
    "load_sharded",
    "save_sharded",
]
