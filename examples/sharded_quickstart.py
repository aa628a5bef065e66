"""Sharded quickstart: segment, query, inspect pruning, persist, reload.

Run with::

    PYTHONPATH=src python examples/sharded_quickstart.py
"""

import tempfile

import numpy as np

from repro import (
    IncompleteDatabase,
    MissingSemantics,
    ShardedDatabase,
    generate_uniform_table,
    load_sharded,
    save_sharded,
)
from repro.dataset.reorder import lexicographic_order


def main() -> None:
    # A Table-7-style synthetic dataset, sorted by its leading attribute so
    # each row-range segment covers a narrow slice of that attribute's
    # domain — the layout that makes segment pruning effective.
    table = generate_uniform_table(
        50_000,
        {"region": 100, "product": 50, "rating": 20},
        {"region": 0.1, "product": 0.2, "rating": 0.3},
        seed=42,
    )
    table = table.take(lexicographic_order(table, ["region"]))

    # Four segments, each a row range with its own table and index files;
    # reads run on one engine assembled from them on the first query.
    db = ShardedDatabase(table, num_shards=4)
    db.create_index("ix", "bre")
    print(db.summary())

    # A narrow range on the clustered attribute: the exact per-segment
    # histograms let the query read only the rows of the segments that
    # can match.
    query = {"region": (10, 12), "rating": (5, 15)}
    report = db.execute(query, MissingSemantics.NOT_MATCH)
    print(f"\n{report}")
    print(db.explain(query, MissingSemantics.NOT_MATCH))

    # The answer is bit-identical to the unsharded engine's, under both
    # missing-data semantics.
    unsharded = IncompleteDatabase(table)
    unsharded.create_index("ix", "bre")
    for semantics in MissingSemantics:
        sharded_ids = db.execute(query, semantics).record_ids
        unsharded_ids = unsharded.execute(query, semantics).record_ids
        assert np.array_equal(sharded_ids, unsharded_ids)
        print(
            f"{semantics.value}: {len(sharded_ids)} matches, "
            f"identical to unsharded"
        )

    # A batch runs its queries in order on the same engine.
    workload = [query, {"region": (10, 12)}, query, {"product": (1, 25)}]
    reports = db.execute_batch(workload, MissingSemantics.IS_MATCH)
    print(f"\nbatch: {[r.num_matches for r in reports]} matches per query")
    print(f"segments skipped per query: {[r.num_pruned for r in reports]}")

    # Persist the whole arrangement — manifest, per-segment tables, and
    # serialized indexes — and reload it fully queryable.
    with tempfile.TemporaryDirectory() as directory:
        save_sharded(db, directory)
        with load_sharded(directory) as restored:
            again = restored.execute(query, MissingSemantics.NOT_MATCH)
            assert np.array_equal(again.record_ids, report.record_ids)
            print(f"\nreloaded from {directory}: results identical")
    db.close()


if __name__ == "__main__":
    main()
