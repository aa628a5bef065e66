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
from repro.observability import NULL_REGISTRY, use_registry
from repro.query.model import MissingSemantics, RangeQuery
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

    A logical-op result carries its group array, so an op charges only for
    the operands it found in compressed form, and ``wah.words_emitted``
    moves when a stream is actually built — by the run-merge kernel, or on
    the first read of a result's ``.words``.
    """

    def test_and_counts_words_fills_literals_exactly(self, wah_pair):
        a, b = wah_pair
        with use_registry() as reg:
            result = a & b
        assert reg.snapshot().counters == {
            "wah.ops": 1,
            "wah.words_decoded": 3,   # 1 word of a + 2 words of b
            "wah.fill_words": 2,      # a's fill + b's trailing zero fill
            "wah.literal_words": 1,   # b's alternating-bit word
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
        assert counters["wah.words_decoded"] == 4  # a, b, then a again
        assert "wah.words_emitted" not in counters

    def test_or_many_counts_all_operands(self, wah_pair):
        a, b = wah_pair
        c = a & b  # carried as groups until its stream is asked for
        with use_registry() as reg:
            WahBitVector.or_many([a, b, c])
        counters = reg.snapshot().counters
        assert counters["wah.ops"] == 2  # n-1 pairwise merges
        assert counters["wah.words_decoded"] == 3  # 1 + 2; c is decoded
        assert counters["wah.fill_words"] == 2
        assert counters["wah.literal_words"] == 1
        assert len(c.words) == 2  # literal + fill: now c is a stream
        with use_registry() as reg:
            WahBitVector.or_many([a, b, c])
        counters = reg.snapshot().counters
        assert counters["wah.words_decoded"] == 5  # 1 + 2 + 2
        assert counters["wah.fill_words"] == 3
        assert counters["wah.literal_words"] == 2

    def test_both_execution_paths_agree(self):
        # Force the run-merge path (sparse) and the group-array path
        # (dense) on equal-length inputs: both read exactly their stored
        # operands; only the run merge builds a stream on the spot.
        rng = np.random.default_rng(11)
        dense_a = WahBitVector.from_bools(rng.random(31 * 400) < 0.5)
        dense_b = WahBitVector.from_bools(rng.random(31 * 400) < 0.5)
        sparse_a = WahBitVector.from_bools(rng.random(31 * 400) < 0.0005)
        sparse_b = WahBitVector.from_bools(rng.random(31 * 400) < 0.0005)
        assert len(sparse_a.words) + len(sparse_b.words) <= 400 // 4
        for x, y, merged in (
            (dense_a, dense_b, False), (sparse_a, sparse_b, True)
        ):
            with use_registry() as reg:
                result = x & y
            counters = reg.snapshot().counters
            assert counters["wah.words_decoded"] == len(x.words) + len(y.words)
            assert (
                counters["wah.fill_words"] + counters["wah.literal_words"]
                == counters["wah.words_decoded"]
            )
            assert counters.get("wah.words_emitted", 0) == (
                len(result.words) if merged else 0
            )


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
