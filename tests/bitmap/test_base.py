"""Unit tests for shared bitmap-index machinery (sizes, execution, errors)."""

import numpy as np
import pytest

from repro.bitmap.base import constant_vector
from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.bitvector.ops import OpCounter, make_bitvector
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import IndexBuildError, QueryError, ReproError
from repro.query.model import MissingSemantics, RangeQuery


class TestConstruction:
    def test_default_covers_whole_schema(self, small_table):
        index = EqualityEncodedBitmapIndex(small_table)
        assert set(index.attributes) == {"low", "mid", "high"}

    def test_subset_of_attributes(self, small_table):
        index = EqualityEncodedBitmapIndex(small_table, ["mid"])
        assert index.attributes == ("mid",)
        with pytest.raises(QueryError):
            index.evaluate_interval(
                "low", __import__("repro.query.model", fromlist=["Interval"]).Interval(1, 1),
                MissingSemantics.IS_MATCH,
            )

    def test_empty_attribute_list_rejected(self, small_table):
        with pytest.raises(IndexBuildError):
            EqualityEncodedBitmapIndex(small_table, [])

    def test_unknown_codec_rejected(self, small_table):
        with pytest.raises(ReproError):
            EqualityEncodedBitmapIndex(small_table, codec="lz4")

    def test_properties(self, small_table):
        index = RangeEncodedBitmapIndex(small_table, ["mid"], codec="wah")
        assert index.codec == "wah"
        assert index.num_records == 1000
        assert index.cardinality("mid") == 10
        assert index.has_missing("mid")
        assert "RangeEncodedBitmapIndex" in repr(index)


class TestSizeReport:
    def test_verbatim_bytes_accounting(self, small_table):
        index = EqualityEncodedBitmapIndex(small_table, ["mid"], codec="none")
        report = index.size_report()
        (attr_report,) = report.per_attribute
        # C=10 plus missing bitmap, 1000 bits each -> 125 bytes per bitmap.
        assert attr_report.num_bitmaps == 11
        assert attr_report.verbatim_bytes == 11 * 125
        assert attr_report.compressed_bytes == attr_report.verbatim_bytes
        assert report.compression_ratio == pytest.approx(1.0)

    def test_wah_report_differs_from_verbatim(self, small_table):
        index = EqualityEncodedBitmapIndex(small_table, ["high"], codec="wah")
        report = index.size_report()
        assert report.total_bytes != report.total_verbatim_bytes
        assert index.nbytes() == report.total_bytes

    def test_ratio_of_empty_is_one(self):
        table = generate_uniform_table(0, {"a": 2}, {}, seed=0)
        index = EqualityEncodedBitmapIndex(table, codec="wah")
        assert index.size_report().compression_ratio == 1.0


class TestExecution:
    def test_execute_ands_across_attributes(self, small_table):
        index = RangeEncodedBitmapIndex(small_table, codec="wah")
        query = RangeQuery.from_bounds({"mid": (2, 4), "high": (1, 50)})
        counter = OpCounter()
        ids = index.execute_ids(query, MissingSemantics.NOT_MATCH, counter)
        mid = small_table.column("mid")
        high = small_table.column("high")
        expect = np.flatnonzero(
            (mid >= 2) & (mid <= 4) & (high >= 1) & (high <= 50)
        )
        assert np.array_equal(ids, expect)
        # One AND joins the two per-attribute partial results.
        assert counter.binary_ops >= 1

    def test_execute_rejects_uncovered_attribute(self, small_table):
        index = RangeEncodedBitmapIndex(small_table, ["mid"])
        with pytest.raises(QueryError):
            index.execute(
                RangeQuery.from_bounds({"low": (1, 1)}),
                MissingSemantics.IS_MATCH,
            )

    def test_default_semantics_is_match(self, paper_table):
        index = EqualityEncodedBitmapIndex(paper_table)
        ids = index.execute_ids(RangeQuery.from_bounds({"a1": (3, 3)}))
        assert 3 in ids.tolist()  # missing record matched


class TestConstantVector:
    """Synthesized constants are built once per codec, length and value."""

    @pytest.mark.parametrize("codec", ["wah", "bbc", "none"])
    def test_matches_a_fresh_build(self, codec):
        table = generate_uniform_table(100, {"a": 6}, {"a": 0.2}, seed=2)
        family = RangeEncodedBitmapIndex(table, codec=codec)._family("a")
        vec = constant_vector(family, True)
        assert np.array_equal(vec.to_indices(), np.arange(100))
        assert vec == make_bitvector(np.ones(100, dtype=bool), codec)

    def test_wah_constant_shares_its_stream(self):
        table = generate_uniform_table(100, {"a": 6}, {"a": 0.2}, seed=2)
        family = RangeEncodedBitmapIndex(table)._family("a")
        first, second = constant_vector(family, True), constant_vector(family, True)
        # Fresh vectors over one stream: each decodes on its first read.
        assert first is not second and first.words is second.words

    def test_shared_verbatim_constant_survives_every_operator(self):
        table = generate_uniform_table(100, {"a": 6}, {"a": 0.2}, seed=2)
        index = RangeEncodedBitmapIndex(table, codec="none")
        family = index._family("a")
        ones = constant_vector(family, True)
        assert constant_vector(family, True) is ones
        other = index.bitmap("a", 2)
        for result in (ones & other, ones | other, ones ^ other, ~ones,
                       ones.andnot(other), other.andnot(ones)):
            assert result is not ones
        assert ones.count() == 100
