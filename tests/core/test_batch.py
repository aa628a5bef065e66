"""Tests for the batch executor and engine hardening fixes."""

import numpy as np
import pytest

from repro.core.cache import SubResultCache
from repro.core.engine import IncompleteDatabase
from repro.core.planner import rank_plans
from repro.errors import PlanningError, ReproError
from repro.observability import MetricsRegistry, use_registry
from repro.query.model import MissingSemantics, RangeQuery


@pytest.fixture
def db(small_table):
    db = IncompleteDatabase(small_table)
    db.create_index("bre", "bre", ["mid", "high"])
    db.create_index("bee", "bee", ["low", "mid"])
    db.create_index("va", "vafile", ["low", "high"])
    return db


def _workload():
    """Queries hitting different indexes, with deliberate repeats."""
    repeated = {"mid": (3, 8), "high": (20, 70)}
    return [
        RangeQuery.from_bounds(repeated),
        RangeQuery.from_bounds({"low": (1, 1), "mid": (2, 9)}),
        RangeQuery.from_bounds(repeated),
        RangeQuery.from_bounds({"low": (1, 2), "high": (5, 40)}),
        RangeQuery.from_bounds({"mid": (3, 8), "high": (20, 70)}),
        RangeQuery.from_bounds({"low": (1, 1), "mid": (2, 9)}),
    ]


class TestBatchEquivalence:
    @pytest.mark.parametrize("semantics", list(MissingSemantics))
    @pytest.mark.parametrize("warm", [True, False])
    def test_batch_matches_sequential(self, db, semantics, warm):
        queries = _workload()
        sequential = [db.execute(q, semantics) for q in queries]
        if warm:  # the batch below then answers from cached sub-results
            db.execute_batch(queries, semantics)
        batch = db.execute_batch(queries, semantics)
        assert len(batch) == len(queries)
        for seq, bat in zip(sequential, batch):
            assert np.array_equal(seq.record_ids, bat.record_ids)
            assert seq.index_name == bat.index_name

    def test_bounds_mappings_accepted(self, db):
        reports = db.execute_batch([{"mid": (3, 8)}, {"mid": (3, 8)}])
        assert np.array_equal(reports[0].record_ids, reports[1].record_ids)

    def test_using_forces_index_for_whole_batch(self, db):
        queries = [RangeQuery.from_bounds({"mid": (2, 9)})] * 3
        reports = db.execute_batch(queries, using="bee")
        assert all(r.index_name == "bee" for r in reports)

    def test_using_uncovered_rejected(self, db):
        with pytest.raises(ReproError, match="does not cover"):
            db.execute_batch([RangeQuery.from_bounds({"high": (1, 50)})], using="bee")

    def test_scan_fallback_group(self, small_table):
        db = IncompleteDatabase(small_table)
        reports = db.execute_batch([{"mid": (3, 8)}, {"mid": (3, 8)}])
        assert all(r.index_name == "<scan>" for r in reports)

    def test_empty_batch(self, db):
        assert db.execute_batch([]) == []


class TestBatchCaching:
    def test_repeated_intervals_hit_cache(self, db):
        queries = _workload()
        db.execute_batch(queries)
        stats = db.sub_result_cache.stats()
        assert stats.hits > 0
        assert stats.stores > 0

    def test_starved_cache_still_correct(self, db):
        queries = _workload()
        sequential = [db.execute(q) for q in queries]
        db._cache = SubResultCache(max_bytes=64)
        batch = db.execute_batch(queries)
        for seq, bat in zip(sequential, batch):
            assert np.array_equal(seq.record_ids, bat.record_ids)

    def test_single_query_execute_stays_cache_free(self, db):
        db.execute(RangeQuery.from_bounds({"mid": (3, 8), "high": (20, 70)}))
        assert db.sub_result_cache.stats().stores == 0

    def test_vafile_shares_interval_scans(self, db):
        registry = MetricsRegistry()
        queries = [RangeQuery.from_bounds({"low": (1, 2), "high": (5, 40)})] * 3
        with use_registry(registry):
            db.execute_batch(queries, using="va")
        counters = dict(registry.snapshot().counters)
        assert counters.get("vafile.batch_mask_reuses", 0) >= 4


class TestBatchTracing:
    def test_traces_are_per_query(self, db):
        queries = _workload()
        reports = db.execute_batch(queries, trace=True)
        traces = [r.trace for r in reports]
        assert all(t is not None for t in traces)
        assert len({id(t) for t in traces}) == len(queries)
        for report in reports:
            names = [s.name for s in report.trace.root.children]
            assert names[0] == "plan"

    def test_no_trace_by_default(self, db):
        reports = db.execute_batch(_workload()[:2])
        assert all(r.trace is None for r in reports)


class TestPlannerHardening:
    def test_estimate_uncovered_attribute_raises_planning_error(self, db):
        from repro.core.planner import estimate_bitmap_cost

        bee = db.get_index("bee")  # covers low, mid only
        query = RangeQuery.from_bounds({"high": (1, 50)})
        with pytest.raises(PlanningError, match="does not cover query attribute"):
            estimate_bitmap_cost(bee.index, query, MissingSemantics.IS_MATCH)

    def test_vafile_estimate_uncovered_raises_planning_error(self, db):
        from repro.core.planner import estimate_vafile_cost

        va = db.get_index("va")  # covers low, high only
        query = RangeQuery.from_bounds({"mid": (1, 5)})
        with pytest.raises(PlanningError, match="does not cover"):
            estimate_vafile_cost(va.index, query, MissingSemantics.IS_MATCH)

    def test_rank_plans_skips_non_covering_indexes(self, db):
        query = RangeQuery.from_bounds({"high": (1, 50)})
        candidates = [db.get_index("bee"), db.get_index("bre"), db.get_index("va")]
        plans = rank_plans(candidates, query, MissingSemantics.IS_MATCH)
        assert {p.index_name for p in plans} == {"bre", "va"}

    def test_planning_error_is_repro_error(self):
        assert issubclass(PlanningError, ReproError)


class TestIndexRegistryHardening:
    def test_duplicate_name_rejected_with_hatch_hint(self, db):
        with pytest.raises(ReproError, match="already exists"):
            db.create_index("bre", "bre")

    def test_overwrite_replaces_index(self, db):
        replaced = db.create_index("bre", "bee", ["low"], overwrite=True)
        assert db.get_index("bre") is replaced
        assert replaced.kind == "bee"

    def test_planner_never_sees_stale_index_after_drop(self, db):
        query = RangeQuery.from_bounds({"mid": (3, 8), "high": (20, 70)})
        assert db.choose_index(query).name == "bre"
        db.drop_index("bre")
        chosen = db.choose_index(query)
        assert chosen is None or chosen.name != "bre"
        report = db.execute(query)
        assert report.index_name != "bre"

    def test_overwrite_invalidates_cached_sub_results(self, db):
        queries = [RangeQuery.from_bounds({"mid": (3, 8), "high": (20, 70)})] * 2
        db.execute_batch(queries, using="bre")
        assert len(db.sub_result_cache) > 0
        db.create_index("bre", "bre", ["mid", "high"], overwrite=True)
        assert len(db.sub_result_cache) == 0
        # The stale entries are gone: a fresh batch stores anew.
        before = db.sub_result_cache.stats().stores
        db.execute_batch(queries, using="bre")
        assert db.sub_result_cache.stats().stores > before

    def test_drop_invalidates_cached_sub_results(self, db):
        queries = [RangeQuery.from_bounds({"mid": (3, 8), "high": (20, 70)})] * 2
        db.execute_batch(queries, using="bre")
        assert len(db.sub_result_cache) > 0
        db.drop_index("bre")
        assert len(db.sub_result_cache) == 0

    def test_explicit_invalidate_cache_hatch(self, db):
        db.execute_batch(
            [RangeQuery.from_bounds({"mid": (3, 8), "high": (20, 70)})] * 2
        )
        dropped = db.invalidate_cache()
        assert dropped >= 1
        assert len(db.sub_result_cache) == 0
