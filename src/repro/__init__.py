"""repro — reproduction of "Indexing Incomplete Databases" (EDBT 2006).

Bitmap indexes (equality and range encoded, WAH/BBC compressed) and VA-files
extended with explicit missing-data handling, plus the hierarchical and
prior-work baselines the paper compares against, a selectivity-controlled
workload generator, and the full experiment harness for every figure and
table in the paper's evaluation.

Quick start::

    from repro import (IncompleteDatabase, IncompleteTable, Schema,
                       AttributeSpec, MissingSemantics)

    schema = Schema([AttributeSpec("age_band", 9), AttributeSpec("income", 100)])
    table = IncompleteTable.from_records(schema, [
        {"age_band": 3, "income": 42},
        {"age_band": None, "income": 87},   # None = missing
    ])
    db = IncompleteDatabase(table)
    db.create_index("idx", "bre")           # range-encoded WAH bitmaps
    report = db.query({"age_band": (2, 5)}, MissingSemantics.IS_MATCH)
    print(report.record_ids)                # -> [0 1]; missing matches
"""

from repro.bitmap import (
    BitSlicedIndex,
    EqualityEncodedBitmapIndex,
    IntervalEncodedBitmapIndex,
    RangeEncodedBitmapIndex,
)
from repro.bitvector import BbcBitVector, BitVector, WahBitVector
from repro.core import (
    IncompleteDatabase,
    QueryReport,
    Recommendation,
    WorkloadProfile,
    recommend,
)
from repro.dataset import (
    MISSING,
    AttributeSpec,
    IncompleteTable,
    Schema,
    concat_tables,
    generate_census_like,
    generate_synthetic,
    generate_uniform_table,
    load_table,
    read_csv,
    reorder,
    save_table,
    write_csv,
)
from repro.errors import (
    CorruptIndexError,
    DomainError,
    IndexBuildError,
    PlanningError,
    QueryError,
    ReproError,
    SchemaError,
    ShardError,
)
from repro.shard import (
    ShardedDatabase,
    load_sharded,
    save_sharded,
)
from repro.query import (
    And,
    Atom,
    Interval,
    MissingSemantics,
    Not,
    Or,
    RangeQuery,
    WorkloadGenerator,
)
from repro.storage import (
    FsckFinding,
    FsckReport,
    atomic_write,
    load_bitmap_index_file,
    load_vafile_file,
    save_bitmap_index,
    save_vafile,
    verify_sharded,
)
from repro.vafile import VAFile

__version__ = "1.0.0"

__all__ = [
    "And",
    "Atom",
    "AttributeSpec",
    "BbcBitVector",
    "BitVector",
    "BitSlicedIndex",
    "FsckFinding",
    "FsckReport",
    "Not",
    "Or",
    "atomic_write",
    "verify_sharded",
    "load_bitmap_index_file",
    "load_vafile_file",
    "save_bitmap_index",
    "save_vafile",
    "CorruptIndexError",
    "DomainError",
    "EqualityEncodedBitmapIndex",
    "IncompleteDatabase",
    "IncompleteTable",
    "IndexBuildError",
    "Interval",
    "IntervalEncodedBitmapIndex",
    "concat_tables",
    "reorder",
    "MISSING",
    "MissingSemantics",
    "PlanningError",
    "QueryError",
    "QueryReport",
    "RangeEncodedBitmapIndex",
    "RangeQuery",
    "Recommendation",
    "ReproError",
    "Schema",
    "SchemaError",
    "ShardError",
    "ShardedDatabase",
    "load_sharded",
    "save_sharded",
    "VAFile",
    "WahBitVector",
    "WorkloadGenerator",
    "WorkloadProfile",
    "generate_census_like",
    "generate_synthetic",
    "generate_uniform_table",
    "load_table",
    "read_csv",
    "write_csv",
    "save_table",
    "recommend",
]
