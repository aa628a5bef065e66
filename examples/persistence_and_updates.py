"""Index files, boolean predicates, and a living dataset.

Shows the library's production features around the paper's core: build a
WAH bitmap index, save it as an index file, reload it without the base
table, answer arbitrary AND/OR/NOT predicates, then keep a served dataset
current through appends, deletes and compaction.  Indexes are fixed once
built: every change goes through a ``SnapshotWriter``, which publishes a
new snapshot and rebuilds only the shards it touches, while readers pin
the snapshot they query.

Run with::

    python examples/persistence_and_updates.py
"""

import tempfile
from pathlib import Path

from repro import (
    MissingSemantics,
    RangeQuery,
    ShardedDatabase,
    generate_uniform_table,
)
from repro.bitmap import RangeEncodedBitmapIndex
from repro.query import Atom
from repro.serve import EpochManager, SnapshotWriter
from repro.storage import load_bitmap_index_file, save_bitmap_index


def main() -> None:
    table = generate_uniform_table(
        50_000,
        {"status": 4, "region": 12, "score": 100},
        {"status": 0.05, "region": 0.15, "score": 0.30},
        seed=8,
    )

    index = RangeEncodedBitmapIndex(table, codec="wah")
    report = index.size_report()
    print(
        f"built range-encoded WAH index over {index.num_records} records: "
        f"{report.total_bytes / 1024:.0f} KiB "
        f"(ratio {report.compression_ratio:.2f})"
    )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "orders.rpix"
        size = save_bitmap_index(index, path)
        print(f"saved index file: {path.name}, {size / 1024:.0f} KiB")
        # Index files are self-contained: reload and query without the table.
        index = load_bitmap_index_file(path)

    # Boolean predicate: active-or-pending orders in region 3..5 whose score
    # is NOT in the poor band — with missing scores kept as possibilities.
    predicate = (
        Atom.of("status", 1, 2)
        & Atom.of("region", 3, 5)
        & ~Atom.of("score", 1, 20)
    )
    possible = index.execute_predicate_ids(predicate, MissingSemantics.IS_MATCH)
    definite = index.execute_predicate_ids(predicate, MissingSemantics.NOT_MATCH)
    print(
        f"predicate matches: {len(possible)} possible / {len(definite)} definite"
    )

    # The dataset keeps growing.  Serve it as four row-range shards, and
    # change it only through the writer: each write publishes a new epoch.
    served = ShardedDatabase(table, num_shards=4)
    served.create_index("orders", "bre", codec="wah")
    manager = EpochManager(served)
    writer = SnapshotWriter(manager)
    try:
        batch = generate_uniform_table(
            5_000,
            {"status": 4, "region": 12, "score": 100},
            {"status": 0.05, "region": 0.15, "score": 0.30},
            seed=9,
        )
        epoch = writer.append(batch)
        with manager.pin() as pin:
            print(
                f"epoch {epoch}: appended {batch.num_records} records -> "
                f"{pin.database.num_records} total"
            )

        # Retention policy: drop everything in status 4 ("cancelled").
        # A pinned reader keeps its snapshot while the delete publishes.
        with manager.pin() as before:
            cancelled = before.database.query(
                RangeQuery.from_bounds({"status": (4, 4)}),
                MissingSemantics.NOT_MATCH,
            ).record_ids
            epoch = writer.delete(cancelled)
            print(
                f"epoch {epoch}: deleted {len(cancelled)} cancelled orders; "
                f"epoch {before.epoch} still reads "
                f"{before.database.num_records} records"
            )
        with manager.pin() as pin:
            count = pin.database.count(
                {"status": (1, 4)}, MissingSemantics.NOT_MATCH
            )
        print(f"orders with a status: {count}; survivors renumbered densely")

        # Appends went to the last shard; compaction cuts equal row ranges
        # again and reuses every shard whose range is unchanged.
        epoch = writer.compact()
        with manager.pin() as pin:
            sizes = [segment.num_records for segment in pin.database.segments]
        print(f"epoch {epoch}: compacted into shards of {sizes} records")
    finally:
        manager.close()


if __name__ == "__main__":
    main()
