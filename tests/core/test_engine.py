"""Unit tests for the :class:`IncompleteDatabase` facade."""

import numpy as np
import pytest

from repro.core.engine import IncompleteDatabase
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

    def test_fetch_holds_the_read_fence_across_execute_and_take(
        self, db, monkeypatch
    ):
        # fetch is inherited from the surface the sharded type shares; on an
        # engine it must still span execute + take with the read lock, or an
        # in-place append / compact could renumber rows between the two.
        db.create_index("rng", "bre")
        depths = []
        take = IncompleteTable.take

        def recording_take(table, ids):
            depths.append(db._rwlock.read_depth)
            return take(table, ids)

        monkeypatch.setattr(IncompleteTable, "take", recording_take)
        db.fetch({"mid": (1, 3)})
        assert depths == [1]
        assert db._rwlock.read_depth == 0

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

    def test_summary_reports_cache_stats(self, db):
        db.create_index("rng", "bre")
        queries = [{"mid": (2, 4)}] * 5
        db.execute_batch(queries)
        text = db.summary()
        assert "sub-result cache:" in text
        assert "hit rate" in text
        stats = db.sub_result_cache.stats()
        assert f"{stats.hits} hits" in text
        assert f"{stats.entries} entries" in text


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
