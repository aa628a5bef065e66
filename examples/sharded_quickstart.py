"""Sharded quickstart: shard, query, inspect pruning, persist, reload.

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
    # each row-range shard covers a narrow slice of that attribute's
    # domain — the layout that makes shard pruning effective.
    table = generate_uniform_table(
        50_000,
        {"region": 100, "product": 50, "rating": 20},
        {"region": 0.1, "product": 0.2, "rating": 0.3},
        seed=42,
    )
    table = table.take(lexicographic_order(table, ["region"]))

    # Four shards, each a row range with its own engine, indexes, and cache.
    db = ShardedDatabase(table, num_shards=4)
    db.create_index("ix", "bre")
    print(db.summary())

    # A narrow range on the clustered attribute: the exact per-shard
    # histograms let the planner skip shards that cannot possibly match.
    query = {"region": (10, 12), "rating": (5, 15)}
    report = db.execute(query, MissingSemantics.NOT_MATCH)
    print(f"\n{report}")
    print(db.explain(query, MissingSemantics.NOT_MATCH))

    # The scatter-gather merge is bit-identical to the unsharded engine,
    # under both missing-data semantics.
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

    # Whole workloads reuse each shard's own sub-result cache.
    workload = [query, {"region": (10, 12)}, query, {"product": (1, 25)}]
    reports = db.execute_batch(workload, MissingSemantics.IS_MATCH)
    print(f"\nbatch: {[r.num_matches for r in reports]} matches per query")
    print(f"aggregated cache stats: {db.cache_stats()}")

    # Persist the whole arrangement — manifest, per-shard tables, and
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
