"""Instrumentation hooks: exact counter values on known inputs.

These tests pin the counters to hand-computed values on small fixtures, the
same way the paper's tables do (its Tables 1-4 work through a 10-record
column), so an instrumentation regression shows up as an off-by-N here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitmap.equality import EqualityEncodedBitmapIndex, paper_example_column
from repro.bitvector.wah import WahBitVector
from repro.core.engine import IncompleteDatabase
from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.table import IncompleteTable
from repro.dataset.synthetic import generate_uniform_table
from repro.observability import (
    NULL_REGISTRY,
    Counter,
    MetricsRegistry,
    use_registry,
)
from repro.query.boolean import Atom
from repro.query.model import MissingSemantics, RangeQuery
from repro.shard import ShardedDatabase
from repro.vafile.vafile import VAFile


@pytest.fixture
def wah_pair():
    """Two 93-bit vectors with known compressed shapes.

    ``a`` compresses to one fill word (3 all-ones groups); ``b`` to one
    literal (alternating bits) followed by one zero-fill word.
    """
    a = WahBitVector.from_bools(np.ones(93, dtype=bool))
    bits = np.zeros(93, dtype=bool)
    bits[:31:2] = True
    b = WahBitVector.from_bools(bits)
    assert len(a.words) == 1 and len(b.words) == 2
    return a, b


class TestWahCounters:
    """``wah.*`` says what was done: streams decoded, streams built.

    A stored vector keeps its group array after its first decode and a
    logical-op result carries one, so an op charges only for the stored
    streams it decodes for the first time (and for results whose stream
    was built, which keep no groups).  ``wah.words_emitted`` moves when a
    stream is built, on the first read of a result's ``.words``.
    """

    def test_and_counts_words_fills_literals_exactly(self, wah_pair):
        a, b = wah_pair
        with use_registry() as reg:
            result = a & b
        assert reg.snapshot().counters == {
            "wah.ops": 1,
            "wah.words_decoded": 3,   # 1 word of a + 2 words of b
        }                             # ... and no stream was built
        with use_registry() as reg:
            assert len(result.words) == 2  # result == b: literal + fill
            result.words                   # already built: free
        assert reg.snapshot().counters == {"wah.words_emitted": 2}

    def test_or_counts_exactly(self, wah_pair):
        a, b = wah_pair
        with use_registry() as reg:
            result = a | b
            assert len(result.words) == 1  # all-ones single fill
        counters = reg.snapshot().counters
        assert counters["wah.ops"] == 1
        assert counters["wah.words_decoded"] == 3
        assert counters["wah.words_emitted"] == 1

    def test_derived_operands_cost_no_decode(self, wah_pair):
        a, b = wah_pair
        with use_registry() as reg:
            ((a & b) | a).count()
        counters = reg.snapshot().counters
        assert counters["wah.ops"] == 2
        assert counters["wah.words_decoded"] == 3  # a and b, once each
        assert "wah.words_emitted" not in counters
        with use_registry() as reg:
            ((a & b) | ~a).count()
        assert reg.snapshot().counters == {
            "wah.ops": 3,
            "wah.words_decoded": 0,  # a and b kept their groups
        }

    def test_or_many_counts_all_operands(self, wah_pair):
        a, b = wah_pair
        c = a & b  # decodes a and b; c is carried as groups
        with use_registry() as reg:
            WahBitVector.or_many([a, b, c])
        counters = reg.snapshot().counters
        assert counters["wah.ops"] == 2  # n-1 pairwise merges
        assert counters["wah.words_decoded"] == 0  # every operand is held
        assert len(c.words) == 2  # literal + fill: now c is a stream only
        fresh_a = WahBitVector._from_words(a.nbits, a.words)
        fresh_b = WahBitVector._from_words(b.nbits, b.words)
        for decoded in (5, 2):  # 1 + 2 + 2, then c alone: it keeps nothing
            with use_registry() as reg:
                WahBitVector.or_many([fresh_a, fresh_b, c])
            assert reg.snapshot().counters["wah.words_decoded"] == decoded

    def test_both_execution_paths_agree(self):
        # Dense and sparse operands take the one group-array path: an op
        # decodes each stored operand on its first use, and builds no stream.
        rng = np.random.default_rng(11)
        dense_a, dense_b = (rng.random(31 * 400) < 0.5 for _ in range(2))
        sparse_a, sparse_b = (rng.random(31 * 400) < 0.0005 for _ in range(2))
        for left, right in ((dense_a, dense_b), (sparse_a, sparse_b)):
            x, y = WahBitVector.from_bools(left), WahBitVector.from_bools(right)
            for decoded in (len(x.words) + len(y.words), 0):
                with use_registry() as reg:
                    result = x & y
                assert reg.snapshot().counters == {
                    "wah.ops": 1, "wah.words_decoded": decoded,
                }
                assert result == WahBitVector.from_bools(left & right)


class TestBitmapCounters:
    def test_bee_paper_example_touches_three_bitvectors(self, paper_table):
        # Query [2,3] under missing-is-a-match on the paper's column:
        # direct branch ORs B_2, B_3, and the missing bitmap B_0.
        index = EqualityEncodedBitmapIndex(paper_table)
        query = RangeQuery.from_bounds({"a1": (2, 3)})
        with use_registry() as reg:
            ids = index.execute_ids(query, MissingSemantics.IS_MATCH)
        counters = reg.snapshot().counters
        assert counters["bitmap.bitvectors_touched"] == 3
        assert counters["bitmap.binary_ops"] == 2  # two ORs, no final AND
        assert counters["bitmap.missing_consulted.is_match"] == 1
        # Records with value 2, 3, or missing: 1-indexed 2,3,4,8,9,10.
        assert ids.tolist() == [1, 2, 3, 7, 8, 9]

    def test_bee_not_match_skips_missing_bitmap(self, paper_table):
        index = EqualityEncodedBitmapIndex(paper_table)
        query = RangeQuery.from_bounds({"a1": (2, 3)})
        with use_registry() as reg:
            index.execute_ids(query, MissingSemantics.NOT_MATCH)
        counters = reg.snapshot().counters
        assert counters["bitmap.bitvectors_touched"] == 2  # B_2, B_3 only
        assert "bitmap.missing_consulted.is_match" not in counters
        assert "bitmap.missing_consulted.not_match" not in counters


class TestVaFileCounters:
    def test_scan_and_refine_counters(self, paper_table):
        va = VAFile(paper_table)
        query = RangeQuery.from_bounds({"a1": (2, 3)})
        with use_registry() as reg:
            ids = va.execute_ids(query, MissingSemantics.IS_MATCH)
        counters = reg.snapshot().counters
        assert counters["vafile.codes_scanned"] == 10  # n per dimension
        assert counters["vafile.candidates"] == len(ids) == 6
        # Default bit budget: one value per bin, so refinement never fires.
        assert counters["vafile.records_refined"] == 0
        assert counters["vafile.queries"] == 1


class TestEngineTraces:
    @pytest.fixture
    def db(self, small_table):
        db = IncompleteDatabase(small_table)
        db.create_index("bee", "bee")
        return db

    def test_trace_shape_matches_plan(self, db):
        query = RangeQuery.from_bounds({"mid": (2, 4), "high": (10, 40)})
        report = db.execute(query, trace=True)
        trace = report.trace
        assert trace is not None and trace.root.end_ns is not None
        assert [c.name for c in trace.root.children] == ["plan", "execute.bee"]
        execute = trace.find("execute.bee")[0]
        # One interval span per query dimension, then the final AND.
        assert [c.name for c in execute.children] == [
            "equality.interval", "equality.interval", "bitmap.and",
        ]
        assert [c.attributes["attribute"] for c in execute.children[:2]] == [
            "mid", "high",
        ]
        assert trace.root.attributes["matches"] == report.num_matches

    def test_trace_carries_exact_leaf_counters(self, db):
        query = RangeQuery.from_bounds({"mid": (2, 4)})
        report = db.execute(query, trace=True)
        interval = report.trace.find("equality.interval")[0]
        # 3 value bitmaps + the missing bitmap ("mid" has 20% missing).
        assert interval.metrics["bitmap.bitvectors_touched"] == 4
        assert interval.metrics["bitmap.missing_consulted.is_match"] == 1
        assert report.trace.metric("bitmap.bitvectors_touched") == 4

    def test_vafile_trace_has_scan_and_refine(self, small_table):
        db = IncompleteDatabase(small_table)
        db.create_index("va", "vafile")
        report = db.execute({"mid": (2, 4)}, trace=True)
        execute = report.trace.find("execute.vafile")[0]
        assert [c.name for c in execute.children] == [
            "vafile.scan", "vafile.refine",
        ]

    def test_scan_fallback_is_traced(self, small_table):
        db = IncompleteDatabase(small_table)
        report = db.execute({"mid": (2, 4)}, trace=True)
        assert report.index_name == "<scan>"
        assert report.trace.find("execute.scan")

    def test_untraced_execution_records_nothing(self, db):
        query = RangeQuery.from_bounds({"mid": (2, 4)})
        report = db.execute(query)
        assert report.trace is None
        assert not NULL_REGISTRY.snapshot()

    def test_planner_probes_stay_out_of_counters(self, small_table):
        # BIE/BSL cost estimation dry-runs interval evaluation; none of that
        # probe work may leak into the real query's counters.
        db = IncompleteDatabase(small_table)
        db.create_index("bie", "bie")
        query = RangeQuery.from_bounds({"mid": (2, 4)})
        with use_registry() as reg:
            db.explain(query)  # plans only, no execution
        counters = reg.snapshot().counters
        assert "wah.ops" not in counters
        assert "bitmap.bitvectors_touched" not in counters


class _CountingCounter(Counter):
    """A counter that also counts its own ``inc`` calls."""

    __slots__ = ("calls",)

    def __init__(self, name: str):
        super().__init__(name)
        self.calls = 0

    def inc(self, amount: int | float = 1) -> None:
        self.calls += 1
        super().inc(amount)


class _IncCountingRegistry(MetricsRegistry):
    def counter(self, name: str) -> Counter:
        return self._get_or_create(self._counters, name, _CountingCounter)

    def incs(self) -> dict[str, int]:
        return {name: c.calls for name, c in self._counters.items()}


_BUDGET_QUERY = {"mid": (2, 6), "high": (10, 60)}
_BUDGET_OPS = {
    "query": lambda db, ix: db.execute(_BUDGET_QUERY, using=ix),
    "count": lambda db, ix: db.count(_BUDGET_QUERY, "both", using=ix),
    "boolean": lambda db, ix: db.query_predicate(
        (Atom.of("mid", 2, 6) | ~Atom.of("low", 1)) & Atom.of("high", 5, 80),
        using=ix,
    ),
    "batch": lambda db, ix: db.execute_batch(
        [_BUDGET_QUERY, {"mid": (3, 9)}, _BUDGET_QUERY, {"high": (1, 30)}],
        using=ix,
    ),
}


class TestIncrementBudget:
    """Counters reach the registry once per query, not once per operation.

    The scatter and every shard task it runs share one tally, so the
    sharded tier holds the same budget as the engine: at most one
    ``Counter.inc`` per counter name per call.
    """

    @pytest.fixture(scope="class", params=["engine", "4 shards"])
    def db(self, request):
        table = generate_uniform_table(
            2000,
            {"low": 2, "mid": 10, "high": 100},
            {"low": 0.5, "mid": 0.2, "high": 0.0},
            seed=7,
        )
        if request.param == "engine":
            db = IncompleteDatabase(table)
        else:
            db = ShardedDatabase(table, num_shards=4)
        db.create_index("bre", "bre")
        db.create_index("va", "vafile", bits={"mid": 2, "high": 4})
        return db

    @pytest.mark.parametrize("index", ["bre", "va"])
    @pytest.mark.parametrize("op", sorted(_BUDGET_OPS))
    def test_one_inc_per_counter_name(self, db, op, index):
        registry = _IncCountingRegistry()
        with use_registry(registry):
            _BUDGET_OPS[op](db, index)
        incs = registry.incs()
        assert incs, "the operation recorded nothing"
        over = {name: n for name, n in incs.items() if n > 1}
        assert not over, f"more than one inc per name: {over}"


class TestCounterValues:
    """Exact registry totals for a small workload over every access path.

    Every encoding under every codec, the VA-file (with refinement), the
    boolean evaluator on both, one engine batch and one sharded batch.
    The expected totals were taken when counters still reached the
    registry one operation at a time; one tally per query must not move
    any of them.  Plans are priced in paper units (injected unit costs),
    so every choice is the one the totals were taken under.  Only the
    planner's own tallies moved since, when plans became memoized: the
    engine batch repeats its three queries, so three rankings (six plans
    costed) are memo hits.  When segments replaced shards and the
    sub-result cache went: the sharded batch's three queries each run
    once on one engine instead of once per shard (three engine queries
    and three rankings fewer; ``shard.fanout_tasks`` counts the two
    segments each query read), and the engine batch recomputes the
    thirteen intervals the cache answered (the ``bitmap.*`` / ``wah.ops``
    rise) and builds no streams (``wah.words_emitted`` and the decodes of
    cached streams are gone).
    """

    EXPECTED = {
        "bbc.bytes_decoded": 25422,
        "bbc.bytes_encoded": 14668,
        "bbc.fill_tokens": 1263,
        "bbc.literal_tokens": 1522,
        "bbc.ops": 306,
        "bbc.tokens_decoded": 4789,
        "bitmap.binary_ops": 789,
        "bitmap.bitvectors_touched": 734,
        "bitmap.missing_consulted.is_match": 118,
        "bitmap.missing_consulted.not_match": 22,
        "bitmap.not_ops": 30,
        "bitmap.words_processed": 15715,
        "engine.batch_queries": 6,
        "engine.batches": 1,
        "engine.queries": 126,
        "engine.queries.bee": 27,
        "engine.queries.bie": 27,
        "engine.queries.bre": 36,
        "engine.queries.bsl": 27,
        "engine.queries.vafile": 9,
        "planner.actual_items": 12469,
        "planner.estimated_items": 8010,
        "planner.plan_chosen.bee": 27,
        "planner.plan_chosen.bie": 27,
        "planner.plan_chosen.bre": 36,
        "planner.plan_chosen.bsl": 27,
        "planner.plan_chosen.vafile": 9,
        "planner.plans_costed": 126,
        "planner.rankings": 123,
        "semantics.both_predicates": 2,
        "semantics.both_queries": 45,
        "semantics.possible_only_rows": 2430,
        "shard.batch_queries": 3,
        "shard.batches": 1,
        "shard.fanout_tasks": 6,
        "shard.pruned": 0,
        "vafile.candidates": 3919,
        "vafile.cells_visited": 3309,
        "vafile.codes_scanned": 7200,
        "vafile.queries": 18,
        "vafile.records_refined": 2451,
        "wah.ops": 375,
        "wah.words_decoded": 578,
    }

    def test_workload_totals_hold(self, unit_costs):
        queries = [
            {"a": (2, 5), "b": (1, 3)}, {"a": (4, 8)}, {"a": (2, 5), "b": (4, 4)},
        ]
        semantics = ("is_match", "not_match", "both")
        table = generate_uniform_table(
            300, {"a": 8, "b": 5}, {"a": 0.2, "b": 0.1}, seed=7
        )
        with use_registry() as reg:
            for kind in ("bee", "bre", "bie", "bsl"):
                for codec in ("wah", "bbc", "none"):
                    db = IncompleteDatabase(table)
                    db.create_index("ix", kind, codec=codec)
                    for sem in semantics:
                        for query in queries:
                            db.execute(query, semantics=sem)
            db = IncompleteDatabase(table)
            db.create_index("va", "vafile", bits={"a": 2, "b": 1})
            for sem in semantics:
                for query in queries:
                    db.execute(query, semantics=sem)
            db.create_index("ix", "bre")
            predicate = (
                (Atom.of("a", 2, 4) | ~Atom.of("b", 3)) & Atom.of("a", 1, 6)
            )
            for sem in semantics:
                db.query_predicate(predicate, semantics=sem, using="ix")
                db.query_predicate(predicate, semantics=sem, using="va")
            db.execute_batch(queries + queries, semantics="both")
            sharded = ShardedDatabase(table, num_shards=2)
            sharded.create_index("ix", "bre")
            sharded.execute_batch(queries, semantics="is_match")
        assert dict(reg.snapshot().counters) == self.EXPECTED
