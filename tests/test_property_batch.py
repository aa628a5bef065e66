"""Property tests: batching never changes results.

Random two-attribute tables and random workloads (drawn from a small
interval pool so repeats occur, which is what exercises the VA-file's
shared interval scans) are run through ``execute_batch`` under both
missing-data semantics, on an engine and on a three-segment sharded
database, and must return exactly the record-id sets one-by-one
``execute`` produces.  This extends "tracing never changes results" to
the batch executor.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import IncompleteDatabase
from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.table import IncompleteTable
from repro.query.model import Interval, MissingSemantics, RangeQuery
from repro.shard.sharded import ShardedDatabase


@st.composite
def batch_cases(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    card_a = draw(st.integers(min_value=2, max_value=12))
    card_b = draw(st.integers(min_value=2, max_value=12))
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

    # A small pool of distinct queries sampled with replacement, so the
    # workload contains repeats (the shared-scan case) by construction.
    pool = [
        RangeQuery({"a": interval(card_a), "b": interval(card_b)})
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    workload = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    )
    return table, workload


def _check_equivalence(db, workload, semantics):
    expected = [db.execute(q, semantics) for q in workload]
    got = db.execute_batch(workload, semantics)
    assert len(got) == len(expected)
    for exp, act in zip(expected, got):
        assert set(exp.record_ids.tolist()) == set(act.record_ids.tolist())
        assert exp.index_name == act.index_name


@settings(max_examples=40, deadline=None)
@given(case=batch_cases())
def test_batch_equals_sequential(case):
    table, workload = case
    db = IncompleteDatabase(table)
    db.create_index("bre", "bre")
    db.create_index("bee", "bee", ["a"])
    db.create_index("va", "vafile")
    for semantics in MissingSemantics:
        _check_equivalence(db, workload, semantics)
        for using in ("bre", "va"):
            expected = [db.execute(q, semantics, using) for q in workload]
            got = db.execute_batch(workload, semantics, using)
            for exp, act in zip(expected, got):
                assert np.array_equal(exp.record_ids, act.record_ids)


@settings(max_examples=40, deadline=None)
@given(case=batch_cases())
def test_sharded_batch_equals_sequential(case):
    table, workload = case
    with ShardedDatabase(table, num_shards=min(3, table.num_records)) as db:
        db.create_index("bre", "bre")
        db.create_index("va", "vafile")
        for semantics in MissingSemantics:
            _check_equivalence(db, workload, semantics)
