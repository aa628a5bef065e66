"""Property tests: sharding never changes results.

Random two-attribute tables, random small workloads, shard counts
{1, 2, 7} (row-range segments), every semantics (``is_match``, ``not_match`` and
the one-pass ``both``), through both ``execute`` and ``execute_batch`` —
the one engine the segments are read as must return exactly the
record-id arrays the unsharded engine produces, element for element and
in the same order.  This is the sharded extension of the
"tracing never changes results" / "batching never changes results"
properties from earlier PRs.

``test_report_conformance`` pins the one report contract on top: every
tier, executor, entry point and semantics answers with the same
``QueryReport`` type and the same ``bound_ids``; ``test_one_query_body``
runs the same items, traced, through an engine and 1, 2 and 7 shards and
requires the same answer, the same index and the same span names.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryReport
from repro.core.engine import IncompleteDatabase
from repro.dataset.reorder import lexicographic_order
from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable
from repro.errors import QueryError
from repro.query.boolean import Not, from_range_query
from repro.query.model import (
    BOTH,
    Interval,
    MissingSemantics,
    RangeQuery,
    resolve_semantics,
)
from repro.shard.sharded import ShardedDatabase

SHARD_COUNTS = (1, 2, 7)
ALL_SEMANTICS = (*MissingSemantics, BOTH)


def _same_ids(left, right) -> bool:
    """Whether two reports carry the same id array for every bound."""
    return all(
        np.array_equal(a, b)
        for a, b in zip(left.bound_ids, right.bound_ids, strict=True)
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
    num_shards = draw(st.sampled_from(SHARD_COUNTS))
    return table, workload, num_shards


@settings(max_examples=40, deadline=None)
@given(case=sharded_cases())
def test_sharded_execution_matches_unsharded(case):
    table, workload, num_shards = case
    unsharded = IncompleteDatabase(table)
    unsharded.create_index("ix", "bre")
    with ShardedDatabase(
        table, num_shards=num_shards, executor="sequential"
    ) as db:
        db.create_index("ix", "bre")
        for semantics in ALL_SEMANTICS:
            expected = [unsharded.execute(q, semantics) for q in workload]
            for exp, query in zip(expected, workload):
                assert _same_ids(exp, db.execute(query, semantics))
            batch = db.execute_batch(workload, semantics)
            for exp, got in zip(expected, batch):
                assert _same_ids(exp, got)


# -- one report at every tier ---------------------------------------------------

CONFORMANCE_QUERIES = [
    RangeQuery.from_bounds({"a": (2, 3)}),
    RangeQuery.from_bounds({"a": (4, 9), "b": (2, 5)}),
]


@pytest.fixture(scope="module")
def clustered_table() -> IncompleteTable:
    # Sorted on ``a`` so contiguous shards have disjoint value ranges and
    # the narrow query prunes some of them.
    table = generate_uniform_table(
        600, {"a": 12, "b": 6}, {"a": 0.2, "b": 0.1}, seed=19
    )
    return table.take(lexicographic_order(table, ["a"]))


def _answers(db, entry: str, semantics) -> list:
    """One report per conformance query through the named entry point."""
    if entry == "execute_batch":
        return db.execute_batch(CONFORMANCE_QUERIES, semantics)
    if entry == "execute":
        return [db.execute(q, semantics) for q in CONFORMANCE_QUERIES]
    return [
        db.query_predicate(Not(from_range_query(q)), semantics)
        for q in CONFORMANCE_QUERIES
    ]


def _assert_contract(report, semantics) -> None:
    """One type; the arity's accessors read, the other arity's raise."""
    assert type(report) is QueryReport
    assert len(report.bound_ids) == len(semantics.bounds)
    if semantics is BOTH:
        assert report.certain_ids is report.bound_ids[0]
        assert report.possible_ids is report.bound_ids[1]
        assert report.num_certain <= report.num_possible
        wrong = ("record_ids", "num_matches")
    else:
        assert report.record_ids is report.bound_ids[0]
        assert report.num_matches == len(report.record_ids)
        wrong = (
            "certain_ids", "possible_ids", "num_certain", "num_possible",
            "possible_only_ids",
        )
    for name in wrong:
        with pytest.raises(QueryError, match="semantics"):
            getattr(report, name)


@pytest.mark.parametrize("semantics", ["is_match", "not_match", "both"])
@pytest.mark.parametrize(
    "entry", ["execute", "execute_batch", "query_predicate"]
)
@pytest.mark.parametrize("executor", ["sequential"])
@pytest.mark.parametrize("num_shards", [1, 4])
def test_report_conformance(
    clustered_table, num_shards, executor, entry, semantics
):
    semantics = resolve_semantics(semantics)
    engine = IncompleteDatabase(clustered_table)
    engine.create_index("ix", "bre")
    expected = _answers(engine, entry, semantics)
    for report in expected:
        _assert_contract(report, semantics)
        # An engine is one partition: one slice, never pruned.
        assert [s.shard_id for s in report.per_shard] == [0]
        assert report.num_pruned == 0
        assert report.elapsed_ns is not None
    with ShardedDatabase(
        clustered_table,
        num_shards=num_shards,
        executor=executor,
    ) as db:
        db.create_index("ix", "bre")
        reports = _answers(db, entry, semantics)
    pruned_anywhere = 0
    for want, report in zip(expected, reports, strict=True):
        _assert_contract(report, semantics)
        assert (report.index_name, report.kind) == ("ix", "bre")
        assert report.elapsed_ns is not None
        for want_ids, ids in zip(want.bound_ids, report.bound_ids):
            assert ids.dtype == np.int64
            assert np.array_equal(want_ids, ids)
        assert [s.shard_id for s in report.per_shard] == list(
            range(num_shards)
        )
        assert report.num_pruned == sum(s.pruned for s in report.per_shard)
        assert all(s.num_matches == 0 for s in report.per_shard if s.pruned)
        # Slices count the widest bound, and shards partition the rows.
        assert sum(s.num_matches for s in report.per_shard) == len(
            report.bound_ids[-1]
        )
        pruned_anywhere += report.num_pruned
    if entry == "query_predicate":
        assert pruned_anywhere == 0
    elif num_shards == 4 and semantics is MissingSemantics.NOT_MATCH:
        assert pruned_anywhere > 0


# -- one query body at every tier -----------------------------------------------


def _span_names(report) -> set:
    """``(depth, name)`` of every span."""
    return {(depth, span.name) for depth, span in report.trace.root.walk()}


def _entry_reports(db, entry: str, semantics) -> list:
    """Traced where the entry point traces; the batch repeats its intervals."""
    if entry == "execute":
        return [db.execute(q, semantics, trace=True) for q in CONFORMANCE_QUERIES]
    if entry == "execute_batch":
        return db.execute_batch(CONFORMANCE_QUERIES * 2, semantics, trace=True)
    return _answers(db, entry, semantics)


@pytest.mark.parametrize("semantics", ["is_match", "not_match", "both"])
@pytest.mark.parametrize(
    "entry", ["execute", "execute_batch", "query_predicate"]
)
@pytest.mark.parametrize("kind", ["bre", "vafile"])
def test_one_query_body(clustered_table, kind, entry, semantics):
    semantics = resolve_semantics(semantics)
    engine = IncompleteDatabase(clustered_table)
    engine.create_index("ix", kind)
    expected = _entry_reports(engine, entry, semantics)
    for num_shards in SHARD_COUNTS:
        with ShardedDatabase(clustered_table, num_shards=num_shards) as db:
            db.create_index("ix", kind)
            reports = _entry_reports(db, entry, semantics)
        for want, got in zip(expected, reports, strict=True):
            assert (got.index_name, got.kind) == ("ix", kind)
            assert (want.index_name, want.kind) == ("ix", kind)
            assert _same_ids(want, got)
            assert len(got.per_shard) == num_shards
            if entry != "query_predicate":
                root = got.trace.root
                assert root.name == "query"
                assert _span_names(got) == _span_names(want)
                executed = [
                    span for span in root.children
                    if span.name.startswith("execute.")
                ]
                # One evaluation, unless the zone maps skipped every segment.
                assert len(executed) == (
                    0 if got.num_pruned == num_shards else 1
                )
