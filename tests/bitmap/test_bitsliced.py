"""Unit tests for the bit-sliced encoding extension."""

import numpy as np
import pytest

from repro.bitmap.bitsliced import BitSlicedIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.bitvector.ops import OpCounter
from repro.dataset.synthetic import generate_uniform_table
from repro.query.ground_truth import evaluate
from repro.query.model import Interval, MissingSemantics, RangeQuery


class TestEncoding:
    def test_num_slices(self):
        assert BitSlicedIndex.num_slices(1) == 1
        assert BitSlicedIndex.num_slices(3) == 2
        assert BitSlicedIndex.num_slices(7) == 3
        assert BitSlicedIndex.num_slices(100) == 7
        assert BitSlicedIndex.num_slices(165) == 8

    def test_stores_logarithmically_many_bitmaps(self):
        table = generate_uniform_table(200, {"a": 100}, {"a": 0.2}, seed=1)
        sliced = BitSlicedIndex(table, codec="none")
        range_encoded = RangeEncodedBitmapIndex(table, codec="none")
        assert sliced.num_bitmaps("a") == 8  # 7 slices + B_0
        assert range_encoded.num_bitmaps("a") == 100

    def test_slices_are_binary_digits(self, paper_table):
        index = BitSlicedIndex(paper_table, codec="none")
        values = paper_table.column("a1")
        for k in range(3):  # C=5 -> 3 slices
            expect = ((values >> k) & 1) == 1
            assert np.array_equal(index.bitmap("a1", k + 1).to_bools(), expect)

    def test_missing_is_all_zero_pattern(self, paper_table):
        index = BitSlicedIndex(paper_table, codec="none")
        for k in range(3):
            bools = index.bitmap("a1", k + 1).to_bools()
            assert not bools[3] and not bools[8]  # the two missing records
        assert index.bitmap("a1", 0).to_indices().tolist() == [3, 8]


class TestExhaustiveCorrectness:
    @pytest.mark.parametrize("cardinality", [1, 2, 3, 4, 7, 8, 10, 16, 31])
    @pytest.mark.parametrize("missing", [0.0, 0.3])
    def test_every_interval_both_semantics(self, cardinality, missing):
        table = generate_uniform_table(
            400, {"a": cardinality}, {"a": missing}, seed=cardinality + 200
        )
        index = BitSlicedIndex(table, codec="none")
        for lo in range(1, cardinality + 1):
            for hi in range(lo, cardinality + 1):
                query = RangeQuery({"a": Interval(lo, hi)})
                for semantics in MissingSemantics:
                    expect = evaluate(table, query, semantics)
                    got = index.execute_ids(query, semantics)
                    assert np.array_equal(got, expect), (
                        cardinality, missing, lo, hi, semantics,
                    )

    def test_wah_codec_multi_attribute(self, small_table, rng):
        index = BitSlicedIndex(small_table, codec="wah")
        for _ in range(20):
            bounds = {}
            for name, cardinality in (("low", 2), ("mid", 10), ("high", 100)):
                lo = int(rng.integers(1, cardinality + 1))
                hi = int(rng.integers(lo, cardinality + 1))
                bounds[name] = (lo, hi)
            query = RangeQuery.from_bounds(bounds)
            for semantics in MissingSemantics:
                expect = evaluate(small_table, query, semantics)
                assert np.array_equal(index.execute_ids(query, semantics), expect)


class TestCostProfile:
    def test_reads_at_most_two_le_passes_of_slices(self):
        table = generate_uniform_table(300, {"a": 100}, {"a": 0.2}, seed=3)
        index = BitSlicedIndex(table, codec="none")
        for lo, hi in [(1, 1), (30, 70), (1, 99), (2, 100), (50, 50)]:
            for semantics in MissingSemantics:
                counter = OpCounter()
                index.evaluate_interval("a", Interval(lo, hi), semantics, counter)
                # At most 2 LE passes (7 slices each) + the missing bitmap.
                assert counter.bitmaps_touched <= 2 * 7 + 1, (lo, hi, semantics)

    @pytest.mark.parametrize("cardinality", [1, 2, 5, 8, 12])
    @pytest.mark.parametrize("missing", [0.0, 0.2])
    def test_bitmaps_for_interval_matches_execution(self, cardinality, missing):
        table = generate_uniform_table(
            300, {"a": cardinality}, {"a": missing}, seed=cardinality + 7
        )
        index = BitSlicedIndex(table, codec="none")
        for lo in range(1, cardinality + 1):
            for hi in range(lo, cardinality + 1):
                for semantics in MissingSemantics:
                    counter = OpCounter()
                    index.evaluate_interval(
                        "a", Interval(lo, hi), semantics, counter
                    )
                    assert counter.bitmaps_touched == index.bitmaps_for_interval(
                        "a", Interval(lo, hi), semantics
                    ), (lo, hi, semantics)

    def test_smaller_than_bre_for_high_cardinality(self):
        table = generate_uniform_table(2000, {"a": 100}, {"a": 0.2}, seed=4)
        sliced = BitSlicedIndex(table, codec="none")
        range_encoded = RangeEncodedBitmapIndex(table, codec="none")
        assert sliced.nbytes() < 0.1 * range_encoded.nbytes()

    def test_serialization_roundtrip(self):
        from repro.storage.serialize import dump_bitmap_index, load_bitmap_index

        table = generate_uniform_table(300, {"a": 20}, {"a": 0.25}, seed=5)
        index = BitSlicedIndex(table, codec="wah")
        loaded = load_bitmap_index(dump_bitmap_index(index))
        query = RangeQuery.from_bounds({"a": (5, 15)})
        for semantics in MissingSemantics:
            assert np.array_equal(
                loaded.execute_ids(query, semantics),
                index.execute_ids(query, semantics),
            )
