"""ShardedDatabase behaviour: identity with the unsharded engine, pruning,
error propagation out of the fan-out, and the query API surface."""

import numpy as np
import pytest

from repro.core.engine import IncompleteDatabase
from repro.dataset.reorder import lexicographic_order
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable
from repro.errors import DomainError, PlanningError, QueryError, ShardError
from repro.observability import use_registry
from repro.query.model import MissingSemantics
from repro.shard.partition import PARTITIONERS
from repro.shard.sharded import ShardedDatabase

QUERIES = [
    {"a": (3, 7)},
    {"a": (1, 30)},
    {"a": (5, 5), "b": (2, 9)},
    {"b": (1, 12)},
    {"a": (29, 30), "b": (11, 12)},
]


@pytest.fixture(scope="module")
def table() -> IncompleteTable:
    t = generate_uniform_table(
        4000, {"a": 30, "b": 12}, {"a": 0.15, "b": 0.3}, seed=5
    )
    return t.take(lexicographic_order(t, ["a"]))


@pytest.fixture(scope="module")
def unsharded(table) -> IncompleteDatabase:
    db = IncompleteDatabase(table)
    db.create_index("ix", "bre")
    return db


def make_sharded(table, **kwargs) -> ShardedDatabase:
    db = ShardedDatabase(table, **kwargs)
    db.create_index("ix", "bre")
    return db


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("semantics", list(MissingSemantics))
def test_execute_identical_to_unsharded(
    table, unsharded, partitioner, semantics
):
    with make_sharded(table, num_shards=4, partitioner=partitioner) as db:
        for query in QUERIES:
            expected = unsharded.execute(query, semantics)
            got = db.execute(query, semantics)
            assert np.array_equal(expected.record_ids, got.record_ids)
            assert got.record_ids.dtype == np.int64 or np.array_equal(
                got.record_ids, got.record_ids.astype(np.int64)
            )


@pytest.mark.parametrize("semantics", list(MissingSemantics))
def test_execute_batch_identical_to_unsharded(table, unsharded, semantics):
    with make_sharded(table, num_shards=3) as db:
        expected = unsharded.execute_batch(QUERIES, semantics)
        got = db.execute_batch(QUERIES, semantics)
        assert len(got) == len(expected)
        for exp, act in zip(expected, got):
            assert np.array_equal(exp.record_ids, act.record_ids)


def test_sequential_fallback_identical(table, unsharded):
    with make_sharded(table, num_shards=4, executor="sequential") as db:
        for query in QUERIES:
            expected = unsharded.execute(query)
            assert np.array_equal(
                expected.record_ids, db.execute(query).record_ids
            )


def test_pruning_skips_shards_on_clustered_data(table):
    # Table is sorted by 'a', so a narrow range on 'a' under NOT_MATCH
    # must leave most contiguous shards prunable.
    with make_sharded(table, num_shards=4) as db:
        report = db.execute({"a": (2, 3)}, MissingSemantics.NOT_MATCH)
        assert report.num_pruned > 0
        pruned = [s for s in report.per_shard if s.pruned]
        for s in pruned:
            assert s.num_matches == 0 and s.elapsed_ns == 0


def test_pruned_shard_results_still_exact(table, unsharded):
    with make_sharded(table, num_shards=4) as db:
        for semantics in MissingSemantics:
            expected = unsharded.execute({"a": (1, 2)}, semantics)
            got = db.execute({"a": (1, 2)}, semantics)
            assert np.array_equal(expected.record_ids, got.record_ids)


def test_single_shard_degenerates(table, unsharded):
    with make_sharded(table, num_shards=1) as db:
        report = db.execute({"a": (4, 9)})
        assert np.array_equal(
            report.record_ids, unsharded.execute({"a": (4, 9)}).record_ids
        )
        assert len(report.per_shard) == 1


def test_count_and_fetch(table, unsharded):
    with make_sharded(table, num_shards=4) as db:
        query = {"a": (3, 8), "b": (2, 10)}
        assert db.count(query) == unsharded.count(query)
        fetched = db.fetch(query)
        expected = unsharded.fetch(query)
        for name in table.schema.names:
            assert np.array_equal(fetched.column(name), expected.column(name))


def test_using_unknown_index(table):
    with make_sharded(table, num_shards=2) as db:
        with pytest.raises(Exception, match="no index named"):
            db.execute({"a": (1, 2)}, using="nope")


def test_using_noncovering_index_raises_query_error(table):
    with ShardedDatabase(table, num_shards=2) as db:
        db.create_index("only_a", "bre", ["a"])
        with pytest.raises(QueryError, match="does not cover"):
            db.execute({"b": (1, 2)}, using="only_a")


def test_domain_error_not_masked_by_pruning(table, unsharded):
    # Out-of-domain bounds must raise exactly as unsharded, not be pruned
    # into a silently empty result.
    with make_sharded(table, num_shards=4) as db:
        with pytest.raises(DomainError):
            unsharded.execute({"a": (1, 31)})
        with pytest.raises(DomainError):
            db.execute({"a": (1, 31)})


def test_worker_exceptions_unwrapped(table):
    # An error raised inside an in-process shard task must surface in the
    # caller as the original exception object, not a wrapper.
    sentinel = PlanningError("boom from worker")
    with make_sharded(table, num_shards=4) as db:
        for shard in db.shards:
            def explode(*args, _exc=sentinel, **kwargs):
                raise _exc

            shard.database._execute_query = explode
        with pytest.raises(PlanningError) as info:
            db.execute({"a": (1, 30)})
        assert info.value is sentinel


def test_explain_mentions_pruning_and_plan(table):
    with make_sharded(table, num_shards=4) as db:
        text = db.explain({"a": (2, 3)}, MissingSemantics.NOT_MATCH)
        assert "pruned shards" in text
        assert "ix" in text
        assert "4" in text


def test_summary_includes_shards_and_cache(table):
    with make_sharded(table, num_shards=3) as db:
        db.execute_batch(QUERIES)
        text = db.summary()
        assert "3 shards" in text
        assert "shard 0" in text and "shard 2" in text
        assert "sub-result caches" in text
        assert "hit rate" in text


def test_cache_stats_aggregate(table):
    with make_sharded(table, num_shards=2) as db:
        repeated = [QUERIES[0]] * 6
        db.execute_batch(repeated)
        stats = db.cache_stats()
        assert stats.hits > 0
        assert db.invalidate_cache() >= 0
        assert db.cache_stats().entries == 0


@pytest.mark.parametrize("semantics", ["is_match", "not_match", "both"])
def test_trace_has_per_shard_children(table, semantics):
    with make_sharded(table, num_shards=4) as db:
        report = db.execute({"a": (1, 30)}, semantics, trace=True)
        trace = report.trace
        assert trace is not None
        assert trace.root.name == "sharded_query"
        shard_roots = [
            child
            for child in trace.root.children
            if "shard" in child.attributes
        ]
        executed = sum(1 for s in report.per_shard if not s.pruned)
        assert len(shard_roots) == executed


def test_batch_trace_has_the_execute_shape(table):
    """A traced batch report carries the tree ``execute(trace=True)`` does,
    and an untraced batch asks no shard for spans."""
    from repro.shard.executor import SequentialShardExecutor

    class Spy(SequentialShardExecutor):
        def run(self, db, tasks):
            self.traced = [task.trace for task in tasks]
            return super().run(db, tasks)

    def shape(span):
        return span.name, [shape(child) for child in span.children]

    spy = Spy()
    with make_sharded(table, num_shards=4, executor=spy) as db:
        for report in db.execute_batch(QUERIES, "both"):
            assert report.trace is None
        assert spy.traced == [False] * 4
        traced = db.execute_batch(QUERIES, "both", trace=True)
        assert spy.traced == [True] * 4
        for query, report in zip(QUERIES, traced):
            single = db.execute(query, "both", trace=True)
            assert shape(report.trace.root) == shape(single.trace.root)
            root = report.trace.root
            assert root.name == "sharded_query"
            assert root.attributes["pruned"] == report.num_pruned
            shard_ids = [
                child.attributes["shard"]
                for child in root.children
                if "shard" in child.attributes
            ]
            assert shard_ids == [
                s.shard_id for s in report.per_shard if not s.pruned
            ]


def test_shard_counters_recorded(table):
    with make_sharded(table, num_shards=4) as db:
        with use_registry() as registry:
            db.execute({"a": (1, 30)})
            db.execute({"a": (2, 3)}, MissingSemantics.NOT_MATCH)
            db.execute_batch(QUERIES)
        counters = registry.snapshot().counters
        assert counters.get("shard.queries", 0) == 2
        assert counters.get("shard.batches", 0) == 1
        assert counters.get("shard.fanout_tasks", 0) > 0
        assert counters.get("shard.pruned", 0) > 0
        histograms = registry.snapshot().histograms
        assert "shard.fanout_ns" in histograms


def test_drop_index_fans_out(table):
    with make_sharded(table, num_shards=2) as db:
        db.drop_index("ix")
        report = db.execute({"a": (1, 5)})
        assert report.index_name == "<scan>"
        with pytest.raises(Exception, match="no index named"):
            db.drop_index("ix")


def test_closed_database_rejects_parallel_work(table):
    db = make_sharded(table, num_shards=4)
    db.execute({"a": (1, 30)})
    db.close()
    with pytest.raises(ShardError, match="closed"):
        db.execute({"a": (1, 30)})


def test_scan_fallback_without_indexes(table, unsharded):
    with ShardedDatabase(table, num_shards=3) as db:
        report = db.execute({"a": (3, 7)})
        assert report.index_name == "<scan>"
        assert np.array_equal(
            report.record_ids, unsharded.execute({"a": (3, 7)}).record_ids
        )
