"""Unit tests for the :class:`IncompleteDatabase` facade."""

import threading
import time

import numpy as np
import pytest

from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable
from repro.errors import QueryError, ReproError
from repro.query.ground_truth import evaluate
from repro.query.model import MissingSemantics, RangeQuery


@pytest.fixture
def db(small_table):
    return IncompleteDatabase(small_table)


class TestIndexManagement:
    def test_create_and_list(self, db):
        db.create_index("i1", "bre")
        db.create_index("i2", "vafile", ["mid"])
        assert db.index_names == ("i1", "i2")
        assert db.get_index("i2").attributes == ("mid",)

    def test_duplicate_name_rejected(self, db):
        db.create_index("i1", "bee")
        with pytest.raises(ReproError, match="already exists"):
            db.create_index("i1", "bre")

    def test_unknown_kind_rejected(self, db):
        with pytest.raises(ReproError, match="unknown index kind"):
            db.create_index("i1", "btree-forest")

    def test_drop(self, db):
        db.create_index("i1", "bee")
        db.drop_index("i1")
        assert db.index_names == ()
        with pytest.raises(ReproError):
            db.drop_index("i1")

    def test_get_unknown_rejected(self, db):
        with pytest.raises(ReproError):
            db.get_index("nope")

    def test_options_forwarded(self, db):
        attached = db.create_index("i1", "bee", codec="none")
        assert attached.index.codec == "none"

    @pytest.mark.parametrize(
        "kind",
        ["bee", "bre", "bie", "bsl", "vafile", "mosaic", "rtree-sentinel",
         "bitstring", "gridfile"],
    )
    def test_every_kind_builds_and_answers(self, small_table, kind):
        db = IncompleteDatabase(small_table)
        db.create_index("ix", kind, ["mid", "low"])
        query = RangeQuery.from_bounds({"mid": (2, 6), "low": (1, 1)})
        for semantics in MissingSemantics:
            expect = evaluate(small_table, query, semantics)
            report = db.query(query, semantics)
            assert report.kind == kind
            assert np.array_equal(np.sort(report.record_ids), expect)


class TestPlanning:
    def test_prefers_bre_over_others(self, db, unit_costs):
        # Priced per word and per code alike, BRE's one stored bitmap beats
        # BEE's OR of three and the VA-file's scan of every record.
        db.create_index("va", "vafile")
        db.create_index("eq", "bee")
        db.create_index("rng", "bre")
        chosen = db.choose_index(RangeQuery.from_bounds({"mid": (1, 3)}))
        assert chosen.name == "rng"

    def test_ignores_non_covering_indexes(self, db):
        db.create_index("partial", "bre", ["mid"])
        db.create_index("full", "vafile")
        chosen = db.choose_index(
            RangeQuery.from_bounds({"mid": (1, 2), "high": (1, 50)})
        )
        assert chosen.name == "full"

    def test_scan_fallback(self, db, small_table):
        query = RangeQuery.from_bounds({"mid": (2, 6)})
        report = db.query(query)
        assert report.kind == "scan"
        expect = evaluate(small_table, query, MissingSemantics.IS_MATCH)
        assert np.array_equal(report.record_ids, expect)

    def test_explain_mentions_plan(self, db):
        db.create_index("rng", "bre")
        text = db.explain(RangeQuery.from_bounds({"mid": (2, 4)}))
        assert "rng" in text and "bitvectors used" in text
        db.drop_index("rng")
        text = db.explain(RangeQuery.from_bounds({"mid": (2, 4)}))
        assert "sequential scan" in text


class TestExecution:
    def test_bounds_mapping_accepted(self, db, small_table):
        db.create_index("rng", "bre")
        report = db.query({"mid": (3, 7)}, MissingSemantics.NOT_MATCH)
        expect = evaluate(
            small_table,
            RangeQuery.from_bounds({"mid": (3, 7)}),
            MissingSemantics.NOT_MATCH,
        )
        assert np.array_equal(np.sort(report.record_ids), expect)

    def test_using_forces_index(self, db):
        db.create_index("rng", "bre")
        db.create_index("va", "vafile")
        report = db.query({"mid": (1, 4)}, using="va")
        assert report.index_name == "va"

    def test_using_uncovered_rejected(self, db):
        db.create_index("partial", "bee", ["low"])
        with pytest.raises(QueryError, match="does not cover"):
            db.query({"mid": (1, 2)}, using="partial")

    def test_count_and_fetch(self, db, small_table):
        db.create_index("rng", "bre")
        query = {"mid": (1, 3)}
        count = db.count(query, MissingSemantics.NOT_MATCH)
        fetched = db.fetch(query, MissingSemantics.NOT_MATCH)
        assert count == fetched.num_records
        assert (fetched.column("mid") >= 1).all()
        assert (fetched.column("mid") <= 3).all()

    def test_fetch_reads_rows_outside_the_read_fence(self, db, monkeypatch):
        # An engine's rows never change, so fetch takes them after execute
        # has released the lock: DDL, the lock's only writer, cannot move
        # them, and fetch never holds a reader slot for the copy.
        db.create_index("rng", "bre")
        depths = []
        take = IncompleteTable.take

        def recording_take(table, ids):
            depths.append(db._rwlock.read_depth)
            return take(table, ids)

        monkeypatch.setattr(IncompleteTable, "take", recording_take)
        db.fetch({"mid": (1, 3)})
        assert depths == [0]

    def test_all_kinds_agree(self, small_table):
        db = IncompleteDatabase(small_table)
        for kind in ("bee", "bre", "vafile", "mosaic"):
            db.create_index(kind, kind, ["mid", "low"])
        query = {"mid": (2, 8), "low": (2, 2)}
        results = {
            kind: np.sort(db.query(query, using=kind).record_ids).tolist()
            for kind in ("bee", "bre", "vafile", "mosaic")
        }
        assert len({tuple(ids) for ids in results.values()}) == 1

    def test_execute_with_trace_returns_span_tree(self, db, small_table):
        db.create_index("rng", "bre")
        query = RangeQuery.from_bounds({"mid": (2, 4)})
        report = db.execute(query, trace=True)
        assert report.trace is not None
        assert report.elapsed_ns is not None and report.elapsed_ns > 0
        assert report.trace.find("execute.bre")
        expect = evaluate(small_table, query, MissingSemantics.IS_MATCH)
        assert np.array_equal(np.sort(report.record_ids), expect)

    def test_execute_without_trace_has_none(self, db):
        db.create_index("rng", "bre")
        report = db.execute({"mid": (2, 4)})
        assert report.trace is None

    def test_explain_analyze_appends_trace(self, db):
        db.create_index("rng", "bre")
        query = RangeQuery.from_bounds({"mid": (2, 4)})
        plain = db.explain(query)
        analyzed = db.explain(query, analyze=True)
        assert analyzed.startswith(plain)
        assert "execute.bre" in analyzed and "ms]" in analyzed


class TestIntrospection:
    def test_repr_names_indexes(self, db):
        db.create_index("rng", "bre")
        db.create_index("va", "vafile", ["mid"])
        text = repr(db)
        assert "records=1000" in text
        assert "rng:bre" in text and "va:vafile" in text

    def test_summary_counts_queries_per_index(self, db):
        db.create_index("rng", "bre")
        db.create_index("va", "vafile")
        db.query({"mid": (1, 3)}, using="rng")
        db.query({"mid": (1, 3)}, using="rng")
        db.query({"mid": (1, 3)}, using="va")
        text = db.summary()
        assert "rng (bre)" in text and "2 queries served" in text
        assert "va (vafile)" in text and "1 query served" in text

    def test_summary_tracks_scans(self, db):
        db.query({"mid": (1, 3)})
        text = db.summary()
        assert "(none; queries fall back to scan)" in text
        assert "sequential scans: 1" in text


class TestAllMissingColumns:
    """fetch() and query_predicate() when an entire column is missing."""

    @pytest.fixture
    def all_missing_db(self):
        from repro.dataset.schema import AttributeSpec, Schema
        from repro.dataset.table import IncompleteTable

        schema = Schema([AttributeSpec("gone", 6), AttributeSpec("ok", 4)])
        table = IncompleteTable(
            schema,
            {
                "gone": np.zeros(40, dtype=np.int64),
                "ok": np.tile(np.array([1, 2, 3, 4], dtype=np.int64), 10),
            },
        )
        db = IncompleteDatabase(table)
        db.create_index("ix", "bre")
        return db

    def test_fetch_all_missing_is_match(self, all_missing_db):
        fetched = all_missing_db.fetch(
            {"gone": (1, 6)}, MissingSemantics.IS_MATCH
        )
        assert fetched.num_records == 40
        assert np.all(fetched.column("gone") == 0)

    def test_fetch_all_missing_not_match(self, all_missing_db):
        fetched = all_missing_db.fetch(
            {"gone": (1, 6)}, MissingSemantics.NOT_MATCH
        )
        assert fetched.num_records == 0
        assert fetched.column("gone").shape == (0,)

    def test_fetch_mixed_query_on_all_missing(self, all_missing_db):
        fetched = all_missing_db.fetch(
            {"gone": (2, 3), "ok": (1, 2)}, MissingSemantics.IS_MATCH
        )
        assert fetched.num_records == 20
        assert set(fetched.column("ok").tolist()) == {1, 2}

    def test_query_predicate_all_missing(self, all_missing_db):
        from repro.query.boolean import And, Atom, Not

        predicate = Atom.of("gone", 1, 6)
        is_match = all_missing_db.query_predicate(
            predicate, MissingSemantics.IS_MATCH
        )
        assert is_match.num_matches == 40
        not_match = all_missing_db.query_predicate(
            predicate, MissingSemantics.NOT_MATCH
        )
        assert not_match.num_matches == 0
        combined = all_missing_db.query_predicate(
            And((Atom.of("gone", 1, 6), Not(Atom.of("ok", 3, 4)))),
            MissingSemantics.IS_MATCH,
        )
        assert combined.num_matches == 20


def _ddl_db(n=400):
    table = generate_uniform_table(
        n, {"a": 9, "b": 4}, {"a": 0.2, "b": 0.1}, seed=13
    )
    db = IncompleteDatabase(table)
    db.create_index("ix", "bre")
    return db


#: Distinct intervals, each worth caching on a BRE (two or more bitmaps).
_TORN_QUERIES = [{"a": (2, 6)}, {"a": (3, 8), "b": (2, 3)}, {"a": (4, 7)}]

_DDL = {
    "create_index": lambda db: db.create_index("ix", "bee", overwrite=True),
    "drop_index": lambda db: db.drop_index("ix"),
}


class TestTornGeneration:
    """Regression: DDL is the only writer of an engine's lock.  A batch
    holding the shared side must see one index set end to end; DDL on the
    index it uses waits for the batch, and the next batch reads the new
    index set."""

    @pytest.mark.parametrize("ddl", sorted(_DDL))
    def test_mid_batch_ddl_waits_for_the_batch(self, ddl):
        db = _ddl_db()
        expected = [
            [int(i) for i in db.execute(q).record_ids] for q in _TORN_QUERIES
        ]
        batch_entered = threading.Event()
        original = db._evaluate
        calls = {"n": 0}

        def slow_evaluate(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                batch_entered.set()
                time.sleep(0.3)  # give the DDL every chance to sneak in
            return original(*args, **kwargs)

        db._evaluate = slow_evaluate
        results, timestamps = {}, {}

        def run_batch():
            results["batch"] = db.execute_batch(_TORN_QUERIES)
            timestamps["batch_done"] = time.perf_counter()

        def run_ddl():
            batch_entered.wait(timeout=10)
            _DDL[ddl](db)
            timestamps["ddl_done"] = time.perf_counter()

        threads = [threading.Thread(target=run_batch),
                   threading.Thread(target=run_ddl)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        db._evaluate = original

        # Every member ran on the index as it was before the DDL, and the
        # DDL committed only after the batch released the lock.
        batch = results["batch"]
        assert [(r.index_name, r.kind) for r in batch] == [("ix", "bre")] * 3
        assert [[int(i) for i in r.record_ids] for r in batch] == expected
        assert timestamps["ddl_done"] >= timestamps["batch_done"]
        after = db.execute_batch(_TORN_QUERIES)
        assert [r.kind for r in after] == (
            ["bee"] * 3 if ddl == "create_index" else ["scan"] * 3
        )
        assert [[int(i) for i in r.record_ids] for r in after] == expected

    def test_concurrent_batches_and_ddl_stay_coherent(self):
        db = _ddl_db(n=300)
        expected = [
            [int(i) for i in db.execute(q).record_ids] for q in _TORN_QUERIES
        ]
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                reports = db.execute_batch(_TORN_QUERIES)
                kinds = {r.kind for r in reports}
                if len(kinds) != 1:
                    failures.append(f"one batch served by {sorted(kinds)}")
                got = [[int(i) for i in r.record_ids] for r in reports]
                if got != expected:
                    failures.append(f"answers changed under {kinds}")

        def writer():
            for i in range(10):
                db.create_index(
                    "ix", ("bee", "bre", "vafile")[i % 3], overwrite=True
                )
                if i % 4 == 3:
                    db.drop_index("ix")
                    db.create_index("ix", "bre")
            stop.set()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
