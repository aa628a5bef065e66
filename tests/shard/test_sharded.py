"""ShardedDatabase behaviour: identity with the unsharded engine, pruning,
error propagation out of the fan-out, and the query API surface."""

import inspect

import numpy as np
import pytest

from repro.core.engine import IncompleteDatabase
from repro.dataset.reorder import lexicographic_order
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable
from repro.errors import DomainError, PlanningError, QueryError, ShardError
from repro.observability import use_registry
from repro.query.model import MissingSemantics, RangeQuery
from repro.serve import EpochManager, SnapshotWriter
from repro.shard.manifest import load_sharded, save_sharded
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


@pytest.mark.parametrize("num_shards", [2, 4, 7])
@pytest.mark.parametrize("semantics", list(MissingSemantics))
def test_execute_identical_to_unsharded(
    table, unsharded, num_shards, semantics
):
    with make_sharded(table, num_shards=num_shards) as db:
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


# -- the layout: shards are row ranges -----------------------------------------


@pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
def test_layout_covers_every_row(table, num_shards):
    with ShardedDatabase(table, num_shards=num_shards) as db:
        assert db.num_shards == num_shards
        assert db.num_records == table.num_records
        stop = 0
        for shard in db.shards:
            assert shard.start == stop
            stop += shard.database.num_records
        assert stop == table.num_records


def test_shards_are_row_ranges(table):
    with ShardedDatabase(table, num_shards=4) as db:
        for shard in db.shards:
            rows = np.arange(shard.start, shard.start + shard.database.num_records)
            for name in table.schema.names:
                assert np.array_equal(
                    shard.database.table.column(name),
                    table.column(name)[rows],
                )


def test_row_counts_balanced_within_one(table):
    # np.array_split sizes: the first n % k shards hold one row more.
    with ShardedDatabase(table.take(np.arange(997)), num_shards=4) as db:
        sizes = [shard.database.num_records for shard in db.shards]
    assert sizes == [250, 249, 249, 249]


def test_invalid_shard_counts(table):
    with pytest.raises(ShardError):
        ShardedDatabase(table, num_shards=0)
    with pytest.raises(ShardError):
        ShardedDatabase(table, num_shards=table.num_records + 1)


def test_rows_table_and_statistics_read_the_shards(table, unsharded):
    """No whole-table copy is kept: ``table`` concatenates on demand,
    ``statistics`` sums the shards' histograms, and ``_rows`` splits ids at
    the shard starts."""
    with make_sharded(table, num_shards=7) as db:
        assert "_table" not in vars(db)
        assert db.table is not db.table
        for name in table.schema.names:
            assert np.array_equal(db.table.column(name), table.column(name))
            assert np.array_equal(
                db.statistics.attribute(name).counts,
                unsharded.statistics.attribute(name).counts,
            )
        assert db.statistics.num_records == table.num_records
        starts = [shard.start for shard in db.shards]
        ids = np.unique(np.concatenate([
            starts, np.subtract(starts[1:], 1), [table.num_records - 1],
            np.arange(0, table.num_records, 37),
        ])).astype(np.int64)
        picked = db._rows(ids)
        for name in table.schema.names:
            assert np.array_equal(picked.column(name), table.column(name)[ids])
        assert db._rows(np.empty(0, dtype=np.int64)).num_records == 0


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

            shard.database._run_task = explode
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
        assert trace.root.name == "query"
        shard_spans = [
            child
            for child in trace.root.children
            if "shard" in child.attributes
        ]
        executed = [s.shard_id for s in report.per_shard if not s.pruned]
        assert [span.attributes["shard"] for span in shard_spans] == executed
        assert {span.name for span in shard_spans} == {"execute.bre"}


def test_batch_trace_has_the_execute_shape(table):
    """A traced batch report carries the tree ``execute(trace=True)`` does,
    and an untraced batch hands no shard a trace."""
    from repro.shard.executor import SequentialShardExecutor

    class Spy(SequentialShardExecutor):
        def run(self, db, tasks):
            self.traced = [
                any(t is not None for t in task.traces) for task in tasks
            ]
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
            assert root.name == "query"
            (plan,) = root.find("plan")
            assert len(plan.attributes.get("pruned_shards", [])) == (
                report.num_pruned
            )
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


# -- the engine is the shard: one surface ---------------------------------------

SURFACE = (
    "execute", "execute_batch", "query", "count", "fetch", "execute_ranked",
    "query_predicate", "explain", "summary", "create_index", "drop_index",
    "invalidate_cache",
)


def _parameters(method):
    return [
        (p.name, p.kind, p.default)
        for p in inspect.signature(method).parameters.values()
    ]


def _line(text, prefix):
    return next(line for line in text.splitlines() if line.startswith(prefix))


def _ddl(db):
    db.create_index("bbc", "bre", codec="bbc")
    db.create_index("va", "vafile", ["a"])
    db.drop_index("ix")
    db.create_index("ix", "bee")


@pytest.mark.parametrize("num_shards", [1, 4])
def test_surface_conformance(table, tmp_path, num_shards, unit_costs):
    engine = IncompleteDatabase(table)
    engine.create_index("ix", "bre")
    with make_sharded(table, num_shards=num_shards) as db:
        # Same parameters: every query entry point is defined once.
        for name in SURFACE:
            expected = _parameters(getattr(IncompleteDatabase, name))
            assert _parameters(getattr(ShardedDatabase, name)) == expected
        for inherited in (
            "execute", "execute_batch", "query_predicate", "query", "count",
            "fetch", "execute_ranked",
        ):
            assert inherited not in ShardedDatabase.__dict__
            assert inherited not in IncompleteDatabase.__dict__

        # One registry: same value, type and order after the same DDL ...
        _ddl(engine)
        _ddl(db)
        assert engine.index_names == ("bbc", "va", "ix")
        assert db.index_names == engine.index_names
        assert type(db.index_names) is type(engine.index_names)
        # ... after a save / load round trip ...
        save_sharded(db, tmp_path)
        with load_sharded(tmp_path) as loaded:
            assert loaded.index_names == engine.index_names
            assert loaded.shards[0].database.get_index("bbc").options == {
                "codec": "bbc"
            }

        # One explain: same estimate line, same chosen plan.
        for semantics in ("not_match", "both"):
            expected = engine.explain(QUERIES[2], semantics)
            got = db.explain(QUERIES[2], semantics)
            for prefix in ("estimated matches:", "plan:", "bitvectors used:"):
                assert _line(got, prefix) == _line(expected, prefix)
            assert _line(got, "->").split(":")[0] == (
                _line(expected, "->").split(":")[0]
            )
            assert f"{num_shards} shards" in got and "shards" not in expected
        analyzed = db.explain(QUERIES[2], analyze=True)
        assert analyzed.startswith(db.explain(QUERIES[2]))
        assert "\nquery {" in analyzed and "shard=" in analyzed
        assert "sub-result cache" in db.summary()

        # One set of conveniences: bit-identical answers.
        for query in QUERIES:
            for semantics in ("is_match", "not_match", "both"):
                assert db.count(query, semantics) == engine.count(
                    query, semantics
                )
            assert db.estimate_count(query) == engine.estimate_count(query)
            fetched, expected = db.fetch(query), engine.fetch(query)
            for name in table.schema.names:
                assert np.array_equal(
                    fetched.column(name), expected.column(name)
                )
            ranked = db.execute_ranked(query, threshold=0.05, limit=50)
            reference = engine.execute_ranked(query, threshold=0.05, limit=50)
            assert np.array_equal(ranked.record_ids, reference.record_ids)
            assert np.array_equal(
                ranked.probabilities, reference.probabilities
            )
            assert ranked.num_certain == reference.num_certain

    # ... and after a SnapshotWriter DDL round trip, options preserved: the
    # next snapshot rebuilds the codec="bbc" index as bbc.
    manager = EpochManager(make_sharded(table, num_shards=num_shards))
    try:
        writer = SnapshotWriter(manager)
        _ddl(writer)
        writer.compact()
        snapshot = manager.current_database
        assert snapshot.index_names == engine.index_names
        for shard in snapshot.shards:
            rebuilt = shard.database.get_index("bbc")
            assert rebuilt.options == {"codec": "bbc"}
            assert rebuilt.index.codec == "bbc"
    finally:
        manager.close()


ENTRY_POINTS = (
    "explain", "choose_index", "estimate_count", "execute", "count", "fetch",
    "execute_ranked",
)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("tier", ["engine", "sharded"])
def test_every_entry_point_coerces_the_query(table, unsharded, tier, entry):
    """A bounds mapping works everywhere ``execute`` takes one (``explain``
    and ``choose_index`` raised AttributeError from inside the planner);
    anything else is a QueryError naming the type."""
    bounds = {"a": (2, 4)}
    with make_sharded(table, num_shards=2) as sharded:
        db = unsharded if tier == "engine" else sharded
        method = getattr(db, entry)
        from_mapping = method(bounds)
        from_query = method(RangeQuery.from_bounds(bounds))
        if entry in ("explain", "estimate_count", "count"):
            assert from_mapping == from_query
        elif entry == "choose_index":
            assert from_mapping.name == from_query.name == "ix"
        elif entry == "fetch":
            assert from_mapping.num_records == from_query.num_records
        else:
            assert np.array_equal(
                from_mapping.record_ids, from_query.record_ids
            )
        for bad in (5, [("a", (2, 4))], "a"):
            with pytest.raises(QueryError, match=type(bad).__name__):
                method(bad)
