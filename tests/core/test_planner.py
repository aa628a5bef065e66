"""Unit tests for the cost-based planner."""

import pytest

from repro.core.engine import IncompleteDatabase
from repro.core.planner import estimate_cost, rank_plans
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import PlanningError
from repro.query.model import MissingSemantics, RangeQuery


@pytest.fixture
def db():
    table = generate_uniform_table(
        5000, {"a": 100, "b": 10}, {"a": 0.1, "b": 0.2}, seed=101
    )
    db = IncompleteDatabase(table)
    db.create_index("bee", "bee")
    db.create_index("bre", "bre")
    db.create_index("va", "vafile")
    db.create_index("mosaic", "mosaic")
    return db


class TestEstimates:
    def test_bitmap_estimate_scales_with_bitmaps_touched(self, db):
        narrow = RangeQuery.from_bounds({"a": (5, 6)})
        wide = RangeQuery.from_bounds({"a": (5, 54)})
        bee = db.get_index("bee")
        cost_narrow = estimate_cost(bee, narrow, MissingSemantics.IS_MATCH)
        cost_wide = estimate_cost(bee, wide, MissingSemantics.IS_MATCH)
        assert cost_wide.items > 3 * cost_narrow.items

    def test_vafile_estimate_is_scan_cost(self, db):
        va = db.get_index("va")
        one_dim = estimate_cost(
            va, RangeQuery.from_bounds({"a": (1, 50)}), MissingSemantics.IS_MATCH
        )
        two_dim = estimate_cost(
            va,
            RangeQuery.from_bounds({"a": (1, 50), "b": (1, 5)}),
            MissingSemantics.IS_MATCH,
        )
        assert one_dim.items == 5000
        assert two_dim.items == 10000

    def test_uncostable_index_returns_none(self, db):
        mosaic = db.get_index("mosaic")
        assert (
            estimate_cost(
                mosaic,
                RangeQuery.from_bounds({"a": (1, 2)}),
                MissingSemantics.IS_MATCH,
            )
            is None
        )

    def test_costing_never_runs_the_query(self, monkeypatch, unit_costs):
        from repro.bitmap.bitsliced import BitSlicedIndex
        from repro.bitmap.interval_encoded import IntervalEncodedBitmapIndex

        table = generate_uniform_table(
            500, {"a": 20, "b": 7}, {"a": 0.2, "b": 0.1}, seed=9
        )
        db = IncompleteDatabase(table)
        db.create_index("bie", "bie")
        db.create_index("bsl", "bsl")

        def refuse(*args, **kwargs):
            raise AssertionError("pricing a plan evaluated an interval")

        for encoding in (IntervalEncodedBitmapIndex, BitSlicedIndex):
            monkeypatch.setattr(encoding, "evaluate_interval", refuse)
        query = RangeQuery.from_bounds({"a": (3, 17), "b": (2, 7)})
        for semantics in MissingSemantics:
            plans = rank_plans(
                [db.get_index("bie"), db.get_index("bsl")], query, semantics
            )
            assert {p.index_name for p in plans} == {"bie", "bsl"}

    def test_rank_orders_cheapest_first(self, db):
        query = RangeQuery.from_bounds({"a": (10, 60), "b": (2, 8)})
        candidates = [db.get_index(n) for n in ("bee", "bre", "va")]
        plans = rank_plans(candidates, query, MissingSemantics.IS_MATCH)
        assert len(plans) == 3
        assert (
            plans[0].predicted_ns
            <= plans[1].predicted_ns
            <= plans[2].predicted_ns
        )


class TestEngineIntegration:
    def test_wide_range_prefers_bre_over_bee(self, db):
        # A half-domain range touches ~50 BEE bitmaps but <= 3 BRE bitmaps.
        query = RangeQuery.from_bounds({"a": (10, 60)})
        chosen = db.choose_index(query, MissingSemantics.IS_MATCH)
        assert chosen.name != "bee"
        ranking = [
            plan.index_name
            for plan in db._plan(query, MissingSemantics.IS_MATCH)[1]
        ]
        assert ranking.index("bre") < ranking.index("bee")

    def test_explain_lists_costed_plans(self, db):
        text = db.explain(RangeQuery.from_bounds({"a": (10, 60)}))
        assert "items" in text
        assert "bre" in text and "va" in text
        plan_lines = [line for line in text.splitlines() if "items," in line]
        assert len(plan_lines) == 3
        assert all("µs predicted" in line for line in plan_lines)
        (costs,) = [
            line for line in text.splitlines()
            if line.startswith("unit costs (measured): ")
        ]
        assert "µs/query" in costs and "±" in costs

    def test_forced_index_bypasses_planner(self, db):
        report = db.query({"a": (10, 60)}, using="va")
        assert report.index_name == "va"


class TestUncoveredAttributeMessages:
    """PlanningError names the missing attribute AND the covering indexes."""

    def test_bitmap_error_lists_covering_indexes(self, db):
        from repro.core.planner import estimate_bitmap_cost
        from repro.bitmap.range_encoded import RangeEncodedBitmapIndex

        query = RangeQuery.from_bounds({"b": (1, 5)})
        narrow = RangeEncodedBitmapIndex(db.table, ["a"])
        with pytest.raises(PlanningError) as info:
            estimate_bitmap_cost(
                narrow, query, MissingSemantics.IS_MATCH,
                available=["wide_b", "other"],
            )
        message = str(info.value)
        assert "'b'" in message
        assert "covering indexes available: ['other', 'wide_b']" in message

    def test_bitmap_error_with_no_covering_indexes(self, db):
        from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
        from repro.core.planner import estimate_bitmap_cost

        narrow = RangeEncodedBitmapIndex(db.table, ["a"])
        with pytest.raises(PlanningError) as info:
            estimate_bitmap_cost(
                narrow,
                RangeQuery.from_bounds({"b": (1, 5)}),
                MissingSemantics.IS_MATCH,
                available=[],
            )
        assert "no attached index covers it" in str(info.value)

    def test_vafile_error_lists_covering_indexes(self, db):
        from repro.core.planner import estimate_vafile_cost
        from repro.vafile.vafile import VAFile

        narrow = VAFile(db.table, ["a"])
        with pytest.raises(PlanningError) as info:
            estimate_vafile_cost(
                narrow,
                RangeQuery.from_bounds({"b": (1, 5)}),
                MissingSemantics.IS_MATCH,
                available=["va_b"],
            )
        message = str(info.value)
        assert "['b']" in message
        assert "covering indexes available: ['va_b']" in message

    def test_legacy_call_without_available_unchanged(self, db):
        from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
        from repro.core.planner import estimate_bitmap_cost

        narrow = RangeEncodedBitmapIndex(db.table, ["a"])
        with pytest.raises(PlanningError) as info:
            estimate_bitmap_cost(
                narrow,
                RangeQuery.from_bounds({"b": (1, 5)}),
                MissingSemantics.IS_MATCH,
            )
        message = str(info.value)
        assert "covering indexes available" not in message
        assert "no attached index covers it" not in message


def _costs(**ns):
    from repro.core.planner import UnitCosts, Work

    spread = ns.pop("spread", 0.0)
    return UnitCosts(ns=Work(**ns), spread=spread)


class TestMeasuredChooser:
    """The chooser on injected unit costs: deterministic by construction."""

    QUERY = RangeQuery.from_bounds({"a": (10, 60), "b": (2, 8)})

    def _pick(self, db):
        return db.choose_index(self.QUERY, MissingSemantics.IS_MATCH).name

    def test_picks_the_minimum_predicted_time(self, db, unit_costs):
        unit_costs(vafile=_costs(codes=0.01))
        assert self._pick(db) == "va"
        plans = db._plan(self.QUERY, MissingSemantics.IS_MATCH)[1]
        assert [p.predicted_ns for p in plans] == sorted(
            p.predicted_ns for p in plans
        )
        assert plans[0].index_name == "va"
        unit_costs(vafile=_costs(codes=100.0))
        db._plan_memo.clear()
        assert self._pick(db) == "bre"

    def test_within_the_spread_items_decide(self, db, unit_costs):
        from repro.core.planner import choose_cheapest, estimate_cost

        bre = estimate_cost(db.get_index("bre"), self.QUERY,
                            MissingSemantics.IS_MATCH)
        # Price the VA-file 5 % under BRE: a gap inside a 10 % spread is
        # noise, so the fewer paper-unit items (BRE's) decide ...
        ns_per_code = 0.95 * bre.predicted_ns / (5000 * 2)
        unit_costs(vafile=_costs(codes=ns_per_code, spread=0.1))
        assert self._pick(db) == "bre"
        # ... and beyond the spread, time does.
        unit_costs(vafile=_costs(codes=ns_per_code, spread=0.01))
        db._plan_memo.clear()
        assert self._pick(db) == "va"
        plans = db._plan(self.QUERY, MissingSemantics.IS_MATCH)[1]
        assert choose_cheapest(plans).index_name == "va"

    def test_predicate_cost_is_its_atoms_plus_combines(self, db, unit_costs):
        from repro.core.planner import estimate_cost
        from repro.query.boolean import Atom

        unit_costs(bre=_costs(queries=1000.0, operands=10.0, words=1.0),
                   vafile=_costs(queries=500.0, codes=0.5))
        first, second = Atom.of("a", 10, 60), Atom.of("b", 2, 3)
        predicate = first & ~second
        semantics = MissingSemantics.IS_MATCH
        for name, pass_work, per_query, per_item in (
            ("bre", (5000 + 30) // 31, 1000.0, 1.0),
            ("va", 5000, 500.0, 0.5),
        ):
            attached = db.get_index(name)
            whole = estimate_cost(attached, predicate, semantics)
            atoms = [
                estimate_cost(attached, RangeQuery({a.attribute: a.interval}),
                              bound)
                for a, bound in ((first, semantics),
                                 (second, semantics.opposite))
            ]
            combines = 2  # one AND, one NOT
            assert whole.items == pytest.approx(
                sum(a.items for a in atoms) + combines * pass_work
            )
            # One execution: the atoms' per-query term is paid once.
            assert whole.predicted_ns == pytest.approx(
                sum(a.predicted_ns for a in atoms) - per_query
                + combines * pass_work * per_item
            )

    def test_predicates_are_costed_on_every_tier(self, db, unit_costs):
        from repro.query.boolean import Atom
        from repro.shard import ShardedDatabase

        predicate = Atom.of("a", 10, 60) & ~Atom.of("b", 2, 3)
        with ShardedDatabase(db.table, num_shards=3) as sharded:
            sharded.create_index("bre", "bre")
            sharded.create_index("va", "vafile")
            for tier in (db, sharded):
                unit_costs(vafile=_costs(codes=0.01), bre=_costs(words=1.0))
                tier._plan_memo.clear()
                assert tier.query_predicate(predicate).kind == "vafile"
                unit_costs(vafile=_costs(codes=100.0))
                tier._plan_memo.clear()
                assert tier.query_predicate(predicate).kind == "bre"

    def test_sharded_cost_is_the_engine_cost(self, db, unit_costs):
        """Segments are read as one engine, so a sharded plan is priced
        over every row at once, as the engine prices it (a joined bitmap's
        size is its segments' stored words, which can differ from one
        stream's by the fills a seam splits)."""
        from repro.shard import ShardedDatabase

        unit_costs(bre=_costs(queries=7000.0, operands=300.0, words=2.0),
                   vafile=_costs(queries=3000.0, codes=0.7))
        with ShardedDatabase(db.table, num_shards=4) as sharded:
            sharded.create_index("bre", "bre")
            sharded.create_index("va", "vafile")
            mine = sharded._plan(self.QUERY, MissingSemantics.IS_MATCH)[1]
        engine = IncompleteDatabase(db.table)
        engine.create_index("bre", "bre")
        engine.create_index("va", "vafile")
        theirs = engine._plan(self.QUERY, MissingSemantics.IS_MATCH)[1]
        assert [p.index_name for p in mine] == [p.index_name for p in theirs]
        for plan, engine_plan in zip(mine, theirs):
            assert plan.items == pytest.approx(engine_plan.items, rel=1e-3)
            assert plan.predicted_ns == pytest.approx(
                engine_plan.predicted_ns, rel=1e-3
            )

    def test_prediction_is_named_in_the_trace_and_the_registry(
        self, db, unit_costs
    ):
        from repro.observability import use_registry
        from repro.shard import ShardedDatabase

        unit_costs(bre=_costs(queries=2000.0, words=3.0),
                   bee=_costs(queries=1e9), vafile=_costs(queries=1e9))
        with ShardedDatabase(db.table, num_shards=2) as sharded:
            sharded.create_index("bre", "bre")
            for tier in (db, sharded):
                plans = tier._plan(self.QUERY, MissingSemantics.IS_MATCH)[1]
                predicted = next(
                    p.predicted_ns for p in plans if p.index_name == "bre"
                )
                with use_registry() as registry:
                    report = tier.execute(self.QUERY, using=None, trace=True)
                assert report.index_name == "bre"
                plan_span = next(
                    span for span in report.trace.root.children
                    if span.name == "plan"
                )
                assert plan_span.attributes["predicted_ns"] == pytest.approx(
                    predicted, abs=1
                )
                histogram = registry.snapshot().histograms[
                    "planner.predicted_ns"
                ]
                # One sample: both tiers evaluate on one engine.
                assert histogram.count == 1
                assert histogram.total == pytest.approx(predicted, abs=2)

    def test_non_costable_kinds_are_the_only_fixed_order(self):
        from repro.core.planner import _PREFERENCE

        assert set(_PREFERENCE).isdisjoint({"bre", "bie", "bee", "bsl", "vafile"})


class TestCalibration:
    """The measured unit costs: lazy, shared, silent, and fitted to counts."""

    def test_probe_counts_are_the_execution_counts(self, db):
        from repro.bitvector.ops import OpCounter
        from repro.core.planner import (
            estimate_bitmap_cost,
            estimate_vafile_cost,
            probe_queries,
        )
        from repro.vafile.vafile import VaQueryStats

        bre, va = db.get_index("bre").index, db.get_index("va").index
        for query, semantics in probe_queries(bre):
            counter = OpCounter()
            bre.execute_bound_ids(query, semantics, counter=counter)
            work, _ = estimate_bitmap_cost(bre, query, semantics)
            assert work.operands == counter.bitmaps_touched
        for query, semantics in probe_queries(va):
            stats = VaQueryStats()
            va.execute_bound_ids(query, semantics, stats=stats)
            work, _ = estimate_vafile_cost(va, query, semantics)
            assert work.codes == stats.codes_scanned

    def test_calibration_reaches_no_registry_and_no_trace(self, db):
        from repro.core.planner import calibrate
        from repro.observability import QueryTrace, activate, use_registry

        trace = QueryTrace()
        with use_registry() as registry, activate(trace):
            for name in ("bee", "bre", "va"):
                costs = calibrate(db.get_index(name))
                assert costs.spread >= 0
                assert all(ns >= 0 for ns in costs.ns)
                assert any(costs.ns)
        assert not registry.snapshot()
        assert trace.root.children == [] and trace.root.metrics == {}

    def test_measured_lazily_once_per_key(self, monkeypatch):
        from repro.core import planner
        from repro.shard import ShardedDatabase

        monkeypatch.setattr(planner._CALIBRATIONS, "measured", {})
        probed = []
        real = planner.calibrate
        monkeypatch.setattr(
            planner, "calibrate",
            lambda attached: probed.append(attached.kind) or real(attached),
        )
        table = generate_uniform_table(
            2000, {"a": 20, "b": 5}, {"a": 0.1, "b": 0.2}, seed=3
        )
        first = IncompleteDatabase(table)
        first.create_index("bre", "bre")
        first.create_index("va", "vafile")
        assert probed == []  # never at build
        first.choose_index({"a": (2, 9)})
        assert sorted(probed) == ["bre", "vafile"]
        # Same kind and size class: another engine shares it, and so does
        # a two-shard database, whose segments are read as one engine.
        second = IncompleteDatabase(table)
        second.create_index("bre", "bre")
        second.execute({"a": (2, 9)})
        assert len(probed) == 2
        with ShardedDatabase(table, num_shards=2) as sharded:
            sharded.create_index("bre", "bre")
            sharded.execute({"a": (2, 9)})
        assert len(probed) == 2

    def test_observed_queries_are_measured_apart(self, monkeypatch):
        # An observed query sizes its operands as it goes, which costs a
        # warm bitmap index about as much as its bitmap work: plans made
        # while a sink listens are priced by probes that pay the same.
        from repro.core import planner
        from repro.observability import enabled, use_registry

        monkeypatch.setattr(planner._CALIBRATIONS, "measured", {})
        probed = []
        real = planner.calibrate
        monkeypatch.setattr(
            planner, "calibrate",
            lambda attached: probed.append(enabled()) or real(attached),
        )
        table = generate_uniform_table(
            2000, {"a": 20, "b": 5}, {"a": 0.1, "b": 0.2}, seed=3
        )
        db = IncompleteDatabase(table)
        db.create_index("bre", "bre")
        db.execute({"a": (2, 9)})
        assert probed == [False]
        with use_registry():
            db.execute({"a": (3, 9)})
            db.execute({"a": (4, 9)})
        assert probed == [False, True]
        db.execute({"a": (5, 9)})
        assert probed == [False, True]


class TestPlanMemo:
    """One memo for both tiers: repeats plan once, every DDL re-plans."""

    def _rankings(self, run) -> int:
        from repro.observability import use_registry

        with use_registry() as registry:
            run()
        return registry.snapshot().counters.get("planner.rankings", 0)

    def test_repeated_execute_plans_once(self, db):
        query = {"a": (10, 60)}
        assert self._rankings(lambda: db.execute(query)) == 1
        assert self._rankings(lambda: [db.execute(query) for _ in range(3)]) == 0
        assert self._rankings(lambda: db.execute(query, "not_match")) == 1

    @pytest.mark.parametrize("change", ["create_index", "drop_index"])
    def test_every_change_forces_a_replan(self, db, change):
        query = {"a": (10, 60)}
        db.execute(query)
        assert self._rankings(lambda: db.execute(query)) == 0
        if change == "create_index":
            db.create_index("bsl", "bsl")
        else:
            db.drop_index("bee")
        assert self._rankings(lambda: db.execute(query)) == 1

    def test_sharded_ddl_forces_a_replan(self, db):
        from repro.shard import ShardedDatabase

        with ShardedDatabase(db.table, num_shards=2) as sharded:
            sharded.create_index("bre", "bre")
            sharded.execute({"a": (10, 60)})
            assert self._rankings(lambda: sharded.execute({"a": (10, 60)})) == 0
            sharded.create_index("va", "vafile")
            assert self._rankings(lambda: sharded.execute({"a": (10, 60)})) == 1


class TestFirstReadDecode:
    """A plan pays to decode the stored WAH bitmaps no query has read yet."""

    QUERY = RangeQuery.from_bounds({"a": (10, 20), "b": (2, 8)})
    SEMANTICS = MissingSemantics.IS_MATCH

    def _undecoded(self, index) -> int:
        return sum(
            index.undecoded_words(name, interval, self.SEMANTICS)
            for name, interval in self.QUERY.items()
        )

    def test_cold_operands_are_priced_and_warm_ones_are_not(self, db):
        from repro.core.planner import estimate_bitmap_cost

        bre = db.get_index("bre").index
        cold, _ = estimate_bitmap_cost(bre, self.QUERY, self.SEMANTICS)
        assert cold.decoded == self._undecoded(bre) > 0
        bre.execute_bound_ids(self.QUERY, self.SEMANTICS)
        warm, _ = estimate_bitmap_cost(bre, self.QUERY, self.SEMANTICS)
        assert warm.decoded == 0
        assert warm._replace(decoded=0) == cold._replace(decoded=0)

    def test_a_decoded_word_is_priced_at_its_unit_cost(self, db, unit_costs):
        unit_costs(bre=_costs(words=1.0, decoded=100.0))
        bre = db.get_index("bre")
        words = self._undecoded(bre.index)
        cold = estimate_cost(bre, self.QUERY, self.SEMANTICS)
        bre.index.execute_bound_ids(self.QUERY, self.SEMANTICS)
        warm = estimate_cost(bre, self.QUERY, self.SEMANTICS)
        assert cold.items == warm.items
        assert cold.predicted_ns - warm.predicted_ns == pytest.approx(100.0 * words)

    def test_the_decode_is_timed_on_the_kernel_and_keeps_nothing(self, db):
        from repro.core.planner import _decode_ns_per_word

        bre = db.get_index("bre").index
        cold = self._undecoded(bre)
        assert _decode_ns_per_word(bre) > 0
        assert all(vec._groups is None for vec in bre.stored_bitmaps())
        assert self._undecoded(bre) == cold
        assert _decode_ns_per_word(db.get_index("va").index) == 0.0

    def test_calibration_prices_a_decoded_word(self, db):
        from repro.core.planner import calibrate

        costs = calibrate(db.get_index("bre"))
        assert costs.ns.decoded > 0
        assert "word decoded" in costs.describe()
        assert calibrate(db.get_index("va")).ns.decoded == 0
