"""Row-range segments for incomplete tables, read as one engine.

See :mod:`repro.shard.sharded` for the execution model, and
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
