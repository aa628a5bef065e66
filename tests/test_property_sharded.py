"""Property tests: sharding never changes results.

Random two-attribute tables, random small workloads, every partitioner,
shard counts {1, 2, 7}, every semantics (``is_match``, ``not_match`` and
the one-pass ``both``), through both ``execute`` and ``execute_batch`` —
the scatter-gather merge must return exactly the record-id arrays the
unsharded engine produces, element for element and in the same order.  This is the sharded extension of the
"tracing never changes results" / "batching never changes results"
properties from earlier PRs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import IncompleteDatabase
from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.table import IncompleteTable
from repro.query.model import BOTH, Interval, MissingSemantics, RangeQuery
from repro.shard.partition import PARTITIONERS
from repro.shard.sharded import ShardedDatabase

SHARD_COUNTS = (1, 2, 7)
ALL_SEMANTICS = (*MissingSemantics, BOTH)


def _same_ids(left, right) -> bool:
    """Whether two reports carry the same id array for every bound."""
    def ids(report):
        if hasattr(report, "certain_ids"):
            return report.certain_ids, report.possible_ids
        return (report.record_ids,)

    return all(
        np.array_equal(a, b)
        for a, b in zip(ids(left), ids(right), strict=True)
    )


@st.composite
def sharded_cases(draw):
    n = draw(st.integers(min_value=7, max_value=50))
    card_a = draw(st.integers(min_value=2, max_value=10))
    card_b = draw(st.integers(min_value=2, max_value=10))
    columns = {}
    for name, cardinality in (("a", card_a), ("b", card_b)):
        columns[name] = np.array(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=cardinality),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int64,
        )
    schema = Schema([AttributeSpec("a", card_a), AttributeSpec("b", card_b)])
    table = IncompleteTable(schema, columns)

    def interval(cardinality):
        lo = draw(st.integers(min_value=1, max_value=cardinality))
        hi = draw(st.integers(min_value=lo, max_value=cardinality))
        return Interval(lo, hi)

    workload = [
        RangeQuery({"a": interval(card_a), "b": interval(card_b)})
        for _ in range(draw(st.integers(min_value=1, max_value=5)))
    ]
    partitioner = draw(st.sampled_from(sorted(PARTITIONERS)))
    num_shards = draw(st.sampled_from(SHARD_COUNTS))
    return table, workload, partitioner, num_shards


@settings(max_examples=40, deadline=None)
@given(case=sharded_cases())
def test_sharded_execution_matches_unsharded(case):
    table, workload, partitioner, num_shards = case
    unsharded = IncompleteDatabase(table)
    unsharded.create_index("ix", "bre")
    with ShardedDatabase(
        table,
        num_shards=num_shards,
        partitioner=partitioner,
        parallel=False,
    ) as db:
        db.create_index("ix", "bre")
        for semantics in ALL_SEMANTICS:
            expected = [unsharded.execute(q, semantics) for q in workload]
            for exp, query in zip(expected, workload):
                assert _same_ids(exp, db.execute(query, semantics))
            batch = db.execute_batch(workload, semantics)
            for exp, got in zip(expected, batch):
                assert _same_ids(exp, got)


@settings(max_examples=15, deadline=None)
@given(case=sharded_cases())
def test_parallel_fanout_matches_unsharded(case):
    table, workload, partitioner, num_shards = case
    unsharded = IncompleteDatabase(table)
    unsharded.create_index("ix", "bre")
    with ShardedDatabase(
        table,
        num_shards=num_shards,
        partitioner=partitioner,
        parallel=True,
    ) as db:
        db.create_index("ix", "bre")
        for semantics in ALL_SEMANTICS:
            for query in workload:
                exp = unsharded.execute(query, semantics)
                assert _same_ids(exp, db.execute(query, semantics))
