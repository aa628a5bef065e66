"""Cross-cutting property tests tying subsystems together.

These drive random tables through combinations of features — statistics vs
oracle, reordering vs queries, snapshot writes vs rebuilds, workload
targeting — asserting the invariants that make the subsystems composable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import TableStatistics
from repro.dataset.reorder import gray_order, lexicographic_order, reorder
from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.table import IncompleteTable, concat_tables
from repro.query.ground_truth import evaluate, selectivity
from repro.query.model import Interval, MissingSemantics, RangeQuery
from repro.query.workload import (
    attribute_selectivity_for,
    expected_global_selectivity,
)
from repro.serve import EpochManager, SnapshotWriter
from repro.shard import ShardedDatabase


@st.composite
def tables(draw, max_records: int = 80):
    n = draw(st.integers(min_value=1, max_value=max_records))
    cardinality = draw(st.integers(min_value=1, max_value=15))
    column = np.array(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=cardinality),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    schema = Schema([AttributeSpec("a", cardinality)])
    return IncompleteTable(schema, {"a": column})


@st.composite
def tables_and_intervals(draw):
    table = draw(tables())
    cardinality = table.schema.cardinality("a")
    lo = draw(st.integers(min_value=1, max_value=cardinality))
    hi = draw(st.integers(min_value=lo, max_value=cardinality))
    return table, Interval(lo, hi)


@settings(max_examples=100, deadline=None)
@given(data=tables_and_intervals())
def test_statistics_single_attribute_estimates_are_exact(data):
    table, interval = data
    stats = TableStatistics(table)
    query = RangeQuery({"a": interval})
    for semantics in MissingSemantics:
        estimate = stats.estimate_selectivity(query, semantics)
        actual = selectivity(table, query, semantics)
        assert abs(estimate - actual) < 1e-9


@settings(max_examples=60, deadline=None)
@given(data=tables_and_intervals(), strategy=st.sampled_from(["gray", "lexicographic"]))
def test_reordering_preserves_query_answers(data, strategy):
    table, interval = data
    reordered, perm = reorder(table, strategy)
    query = RangeQuery({"a": interval})
    for semantics in MissingSemantics:
        original = set(evaluate(table, query, semantics).tolist())
        translated = set(
            perm[evaluate(reordered, query, semantics)].tolist()
        )
        assert translated == original


@settings(max_examples=60, deadline=None)
@given(table=tables())
def test_orderings_are_permutations(table):
    n = table.num_records
    for order_fn in (gray_order, lexicographic_order):
        perm = order_fn(table)
        assert np.array_equal(np.sort(perm), np.arange(n))


def _served(table):
    """A memory-only epoch manager over ``table`` with one BRE index."""
    db = ShardedDatabase(table, num_shards=min(2, table.num_records))
    db.create_index("bre", "bre", codec="wah")
    manager = EpochManager(db)
    return manager, SnapshotWriter(manager)


@settings(max_examples=40, deadline=None)
@given(first=tables(max_records=40), second=tables(max_records=40))
def test_append_always_equals_rebuild(first, second):
    # Align schemas: rebuild the second table under the first's cardinality.
    cardinality = first.schema.cardinality("a")
    column = np.minimum(second.column("a"), cardinality)
    second = IncompleteTable(first.schema, {"a": column})
    combined = concat_tables(first, second)
    manager, writer = _served(first)
    try:
        writer.append(second)
        query = RangeQuery({"a": Interval(1, max(1, cardinality // 2))})
        for semantics in MissingSemantics:
            expect = evaluate(combined, query, semantics)
            got = manager.current_database.execute(query, semantics)
            assert np.array_equal(got.record_ids, expect)
    finally:
        manager.close()


@settings(max_examples=100, deadline=None)
@given(
    gs=st.floats(min_value=0.001, max_value=1.0),
    pm=st.floats(min_value=0.0, max_value=0.9),
    k=st.integers(min_value=1, max_value=10),
)
def test_workload_inversion_is_consistent(gs, pm, k):
    # Whatever the clamp does, re-applying the forward formula to the
    # inverted AS must give a GS between the floor and the ceiling.
    cardinality = 1000
    attr_sel = attribute_selectivity_for(gs, k, pm, cardinality)
    assert 1.0 / cardinality <= attr_sel <= 1.0
    achieved = expected_global_selectivity([attr_sel] * k, [pm] * k)
    floor = expected_global_selectivity([1.0 / cardinality] * k, [pm] * k)
    assert floor - 1e-12 <= achieved <= 1.0 + 1e-12
    # Reachable targets are hit exactly (neither clamp edge fired).
    if gs ** (1.0 / k) > pm and 1.0 / cardinality < attr_sel < 1.0:
        assert abs(achieved - gs) < 1e-6


@settings(max_examples=60, deadline=None)
@given(data=tables_and_intervals())
def test_delete_then_query_is_set_difference(data):
    # A delete is physical: survivors are renumbered densely, so the old
    # answer minus the victims, renumbered, is the new answer.
    table, interval = data
    query = RangeQuery({"a": interval})
    manager, writer = _served(table)
    try:
        before = manager.current_database.execute(query).record_ids
        victims = before[: len(before) // 2]
        if victims.size:
            writer.delete(victims)
        survivors = np.setdiff1d(np.arange(table.num_records), victims)
        after = manager.current_database.execute(query).record_ids
        expect = np.searchsorted(survivors, np.setdiff1d(before, victims))
        assert np.array_equal(after, expect)
    finally:
        manager.close()
