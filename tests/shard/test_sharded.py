"""ShardedDatabase behaviour: identity with the unsharded engine, pruning,
error propagation out of the one evaluation, and the query API surface."""

import inspect
import threading

import numpy as np
import pytest

from repro.core.engine import IncompleteDatabase
from repro.dataset.reorder import lexicographic_order
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable
from repro.errors import DomainError, PlanningError, QueryError, ShardError
from repro.observability import use_registry
from repro.query.ground_truth import evaluate
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
        for segment in db.segments:
            assert segment.start == stop
            stop += segment.num_records
        assert stop == table.num_records


def test_shards_are_row_ranges(table):
    with ShardedDatabase(table, num_shards=4) as db:
        for segment in db.segments:
            rows = np.arange(segment.start, segment.start + segment.num_records)
            for name in table.schema.names:
                assert np.array_equal(
                    segment.table.column(name),
                    table.column(name)[rows],
                )


def test_row_counts_balanced_within_one(table):
    # Balanced within one 31-row group: 997 rows are 33 groups, cut
    # 9, 8, 8, 8, and the last segment ends at the last row.
    with ShardedDatabase(table.take(np.arange(997)), num_shards=4) as db:
        sizes = [segment.num_records for segment in db.segments]
        starts = [segment.start for segment in db.segments]
    assert sizes == [279, 248, 248, 222]
    assert all(start % 31 == 0 for start in starts)
    # Fewer groups than segments: cut row by row instead.
    with ShardedDatabase(table.take(np.arange(90)), num_shards=4) as db:
        sizes = [segment.num_records for segment in db.segments]
    assert sizes == [23, 23, 22, 22]


def test_invalid_shard_counts(table):
    with pytest.raises(ShardError):
        ShardedDatabase(table, num_shards=0)
    with pytest.raises(ShardError):
        ShardedDatabase(table, num_shards=table.num_records + 1)


def test_rows_table_and_statistics_read_the_shards(table, unsharded):
    """The rows are held once: ``table`` is the joined read segment's,
    whose columns the segments view, ``statistics`` sums the shards'
    histograms, and ``_rows`` takes ids across the shard starts."""
    with make_sharded(table, num_shards=7) as db:
        assert "_table" not in vars(db)
        assert db.table is db.table
        for segment in db.segments:
            assert np.shares_memory(
                segment.table.column("a"), db.table.column("a")
            )
        for name in table.schema.names:
            assert np.array_equal(db.table.column(name), table.column(name))
            assert np.array_equal(
                db.statistics.attribute(name).counts,
                unsharded.statistics.attribute(name).counts,
            )
        assert db.statistics.num_records == table.num_records
        starts = [segment.start for segment in db.segments]
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
            assert s.num_matches == 0


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
    # An error raised inside the evaluation must surface in the caller as
    # the original exception object, not a wrapper.
    sentinel = PlanningError("boom from worker")
    with make_sharded(table, num_shards=4) as db:
        def explode(*args, **kwargs):
            raise sentinel

        db._evaluate = explode
        with pytest.raises(PlanningError) as info:
            db.execute({"a": (1, 30)})
        assert info.value is sentinel


def test_explain_mentions_pruning_and_plan(table):
    with make_sharded(table, num_shards=4) as db:
        text = db.explain({"a": (2, 3)}, MissingSemantics.NOT_MATCH)
        assert "pruned shards" in text
        assert "ix" in text
        assert "4" in text


def test_summary_includes_shards(table):
    with make_sharded(table, num_shards=3) as db:
        db.execute_batch(QUERIES)
        text = db.summary()
        assert "3 shards" in text
        assert "shard 0" in text and "shard 2" in text
        assert f"{len(QUERIES)} queries served" in text
        assert "cache" not in text


@pytest.mark.parametrize("semantics", ["is_match", "not_match", "both"])
def test_trace_has_one_execute_span(table, semantics):
    with make_sharded(table, num_shards=4) as db:
        report = db.execute({"a": (1, 30)}, semantics, trace=True)
        trace = report.trace
        assert trace is not None
        assert trace.root.name == "query"
        assert [child.name for child in trace.root.children] == [
            "plan", "execute.bre"
        ]


def test_batch_trace_has_the_execute_shape(table):
    """A traced batch report carries the tree ``execute(trace=True)`` does,
    and an untraced batch evaluates with no trace active."""
    from repro import observability as obs

    def shape(span):
        return span.name, [shape(child) for child in span.children]

    with make_sharded(table, num_shards=4) as db:
        evaluate = db._evaluate
        traced_calls = []

        def spy(*args, **kwargs):
            traced_calls.append(obs.current_trace() is not None)
            return evaluate(*args, **kwargs)

        db._evaluate = spy
        for report in db.execute_batch(QUERIES, "both"):
            assert report.trace is None
        assert traced_calls == [False] * len(QUERIES)
        traced = db.execute_batch(QUERIES, "both", trace=True)
        assert traced_calls[len(QUERIES):] == [True] * len(QUERIES)
        for query, report in zip(QUERIES, traced):
            single = db.execute(query, "both", trace=True)
            assert shape(report.trace.root) == shape(single.trace.root)
            root = report.trace.root
            assert root.name == "query"
            (plan,) = root.find("plan")
            assert len(plan.attributes.get("pruned_shards", [])) == (
                report.num_pruned
            )
            assert [child.name for child in root.children] == [
                "plan", "execute.bre"
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
        # One engine evaluation per query, whatever the segment count.
        assert counters.get("engine.queries", 0) == 2 + len(QUERIES)
        histograms = registry.snapshot().histograms
        assert histograms["shard.merge_ns"].count == 2 + len(QUERIES)


def test_drop_index_fans_out(table):
    with make_sharded(table, num_shards=2) as db:
        db.drop_index("ix")
        report = db.execute({"a": (1, 5)})
        assert report.index_name == "<scan>"
        with pytest.raises(Exception, match="no index named"):
            db.drop_index("ix")


@pytest.mark.parametrize("num_shards", [1, 2])
def test_no_plan_is_memoized_across_a_concurrent_drop(table, num_shards):
    """A query planned onto ``x`` while ``drop_index("x")`` runs finishes
    on ``x`` before the drop, and nothing memoized names ``x`` after it:
    the same query then runs on the scan and still matches the oracle."""
    query = {"a": (2, 5)}
    truth = evaluate(table, RangeQuery.from_bounds(query), MissingSemantics.IS_MATCH)
    with ShardedDatabase(table, num_shards=num_shards) as db:
        db.create_index("x", "bre")
        plan = db._plan
        reached, release = threading.Event(), threading.Event()

        def paused(*args):
            chosen = plan(*args)
            reached.set()
            release.wait(10)
            return chosen

        db._plan = paused
        answers, errors = [], []

        def run(work):
            try:
                answers.append(work())
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        reader = threading.Thread(target=run, args=(lambda: db.execute(query),))
        reader.start()
        assert reached.wait(10)
        dropper = threading.Thread(target=run, args=(lambda: db.drop_index("x"),))
        dropper.start()
        dropper.join(0.2)  # DDL waits for the read that is planning
        release.set()
        reader.join(10)
        dropper.join(10)
        assert not reader.is_alive() and not dropper.is_alive()
        del db._plan
        assert errors == []
        (report,) = [a for a in answers if a is not None]
        assert report.index_name == "x"
        assert np.array_equal(report.record_ids, truth)
        assert db.index_names == ()
        for _ in range(2):
            again = db.execute(query)
            assert again.index_name == "<scan>"
            assert np.array_equal(again.record_ids, truth)
        assert len(db._plan_memo) == 1


@pytest.mark.parametrize("num_shards", [None, 2])
def test_summary_keeps_query_counts_across_ddl(table, num_shards):
    db = (
        IncompleteDatabase(table) if num_shards is None
        else ShardedDatabase(table, num_shards=num_shards)
    )
    db.create_index("x", "bre")
    for query in QUERIES[:3]:
        db.execute(query, using="x")
    db.create_index("y", "vafile")
    assert "x (bre) on [a, b] — 3 queries served" in db.summary()
    db.drop_index("y")
    assert "x (bre) on [a, b] — 3 queries served" in db.summary()


def test_an_index_no_read_chooses_is_never_joined(table, monkeypatch):
    """With several segments each index joins on its first use: reads the
    planner sends to ``bre``, ``table`` and ``choose_index`` build no
    mosaic over the joined rows, even after DDL; forcing the mosaic builds
    it once."""
    from repro.core import segment as segment_module

    query = {"a": (3, 7)}
    truth = evaluate(table, RangeQuery.from_bounds(query), MissingSemantics.IS_MATCH)
    db = ShardedDatabase(table, num_shards=2)
    db.create_index("mosaic", "mosaic")
    db.create_index("bre", "bre")
    built = []
    build = segment_module._BUILDERS["mosaic"]

    def counting(rows, attributes, **options):
        built.append(rows.num_records)
        return build(rows, attributes, **options)

    monkeypatch.setitem(segment_module._BUILDERS, "mosaic", counting)
    report = db.execute(query)
    assert report.index_name == "bre"
    assert np.array_equal(report.record_ids, truth)
    assert db.table.num_records == table.num_records
    assert db.choose_index(query).name == "bre"
    db.create_index("va", "vafile")
    assert db.execute(query).index_name in ("bre", "va")
    assert built == []
    for _ in range(2):
        forced = db.execute(query, using="mosaic")
        assert np.array_equal(forced.record_ids, truth)
    assert built == [table.num_records]


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
            assert inherited in IncompleteDatabase.__dict__

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
            assert loaded.segments[0].indexes["bbc"].options == {
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
            # Segment lines appear only with more than one segment.
            assert ("shards" in got) == (num_shards > 1)
            assert "shards" not in expected
        analyzed = db.explain(QUERIES[2], analyze=True)
        assert analyzed.startswith(db.explain(QUERIES[2]))
        assert "\nquery {" in analyzed and "execute.bre {index=" in analyzed
        assert "queries served" in db.summary()

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
        for segment in snapshot.segments:
            rebuilt = segment.indexes["bbc"]
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
            # The entry's index answers over every row, not one segment's.
            assert from_mapping.index.num_records == table.num_records
        elif entry == "fetch":
            assert from_mapping.num_records == from_query.num_records
        else:
            assert np.array_equal(
                from_mapping.record_ids, from_query.record_ids
            )
        for bad in (5, [("a", (2, 4))], "a"):
            with pytest.raises(QueryError, match=type(bad).__name__):
                method(bad)


# -- lifecycle and removed keywords ---------------------------------------------

SMALL = [
    RangeQuery.from_bounds({"a": (2, 8)}),
    RangeQuery.from_bounds({"a": (1, 3), "b": (2, 4)}),
]


class TestCloseLifecycle:
    def test_double_close_raises(self, table):
        db = ShardedDatabase(table, num_shards=2)
        db.close()
        with pytest.raises(ShardError, match="already been closed"):
            db.close()

    def test_use_after_close_raises(self, table):
        db = ShardedDatabase(table, num_shards=2)
        db.create_index("ix", "bre")
        db.close()
        with pytest.raises(ShardError, match="closed"):
            db.execute(SMALL[0])
        with pytest.raises(ShardError, match="closed"):
            db.execute_batch(SMALL)
        with pytest.raises(ShardError, match="closed"):
            db.create_index("other", "bee")
        with pytest.raises(ShardError, match="closed"):
            db.drop_index("ix")

    def test_context_manager_composes_with_early_close(self, table):
        with ShardedDatabase(table, num_shards=2) as db:
            db.close()  # __exit__ must not close a second time


class TestRemovedKeywords:
    def test_engine_batch_rejects(self, table):
        # The engine's batch thread pool is gone; so are its two keywords.
        db = IncompleteDatabase(table)
        db.create_index("ix", "bre")
        for removed in ("max_workers", "parallel"):
            with pytest.raises(TypeError, match=removed):
                db.execute_batch(
                    SMALL, MissingSemantics.IS_MATCH, **{removed: 1}
                )

    def test_removed_selectors_are_rejected(self, table, tmp_path, monkeypatch):
        # ``executor=`` takes None or "sequential" and nothing else.
        with ShardedDatabase(table, num_shards=2, executor="sequential") as db:
            db.create_index("ix", "bre")
            save_sharded(db, tmp_path)
        with load_sharded(tmp_path, executor="sequential") as loaded:
            assert loaded.num_records == table.num_records
        for removed in ("threads", "processes", object()):
            with pytest.raises(ShardError, match="'sequential'"):
                ShardedDatabase(table, num_shards=2, executor=removed)
            with pytest.raises(ShardError, match="'sequential'"):
                load_sharded(tmp_path, executor=removed)
        with pytest.raises(TypeError, match="parallel"):
            ShardedDatabase(table, num_shards=2, parallel=True)
        with pytest.raises(TypeError, match="max_workers"):
            ShardedDatabase(table, num_shards=2, max_workers=2)
        # Shards are row ranges: no layout is selectable either.
        for partitioner in ("contiguous", "round-robin"):
            with pytest.raises(TypeError, match="partitioner"):
                ShardedDatabase(table, num_shards=2, partitioner=partitioner)
        with pytest.raises(TypeError, match="max_workers"):
            load_sharded(tmp_path, max_workers=2)
        # The environment selects nothing.
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "processes")
        with ShardedDatabase(table, num_shards=2) as db:
            assert not hasattr(db, "executor")
        with load_sharded(tmp_path) as loaded:
            assert loaded.num_records == table.num_records
