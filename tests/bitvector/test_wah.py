"""Unit tests for the WAH-compressed bitvector."""

import numpy as np
import pytest

from repro.bitvector.bitvector import BitVector
from repro.bitvector.wah import (
    FILL_BIT_FLAG,
    FILL_FLAG,
    GROUP_BITS,
    MAX_FILL_GROUPS,
    WahBitVector,
)
from repro.errors import CorruptIndexError, ReproError


class TestRoundTrip:
    @pytest.mark.parametrize("nbits", [0, 1, 30, 31, 32, 61, 62, 63, 1000])
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.5, 0.98, 1.0])
    def test_compress_decompress_identity(self, rng, nbits, density):
        bools = rng.random(nbits) < density
        vec = BitVector.from_bools(bools)
        assert WahBitVector.compress(vec).decompress() == vec

    def test_all_zeros_is_one_fill_word(self):
        wah = WahBitVector.from_bools(np.zeros(31 * 100, dtype=bool))
        assert len(wah.words) == 1
        assert wah.words[0] == FILL_FLAG | 100

    def test_all_ones_is_one_fill_word(self):
        wah = WahBitVector.from_bools(np.ones(31 * 100, dtype=bool))
        assert len(wah.words) == 1
        assert wah.words[0] == FILL_FLAG | FILL_BIT_FLAG | 100

    def test_ones_constructor_masks_partial_tail(self):
        wah = WahBitVector.ones(40)
        assert wah.count() == 40
        assert wah.decompress() == BitVector.ones(40)

    def test_zeros_constructor(self):
        wah = WahBitVector.zeros(100)
        assert wah.count() == 0
        assert wah.nbits == 100


class TestCounting:
    def test_count_on_fills_and_literals(self, rng):
        bools = np.concatenate(
            [np.ones(31 * 5, dtype=bool), rng.random(100) < 0.5,
             np.zeros(31 * 7, dtype=bool)]
        )
        wah = WahBitVector.from_bools(bools)
        assert wah.count() == int(bools.sum())

    def test_to_indices_matches_plain(self, rng):
        bools = rng.random(500) < 0.1
        wah = WahBitVector.from_bools(bools)
        assert np.array_equal(wah.to_indices(), np.flatnonzero(bools))

    def test_density(self):
        wah = WahBitVector.from_bools(np.ones(62, dtype=bool))
        assert wah.density() == pytest.approx(1.0)


class TestCompressionRatio:
    def test_sparse_one_percent_density_ratio_near_paper_value(self, rng):
        # Section 4.2: a 1,000,000-bit missing-value bitmap at ~1% density
        # "would have approximately a compression ratio of 0.47".
        bools = rng.random(1_000_000) < 0.01
        ratio = WahBitVector.from_bools(bools).compression_ratio()
        assert 0.40 <= ratio <= 0.55

    def test_dense_random_does_not_compress(self, rng):
        bools = rng.random(10_000) < 0.5
        ratio = WahBitVector.from_bools(bools).compression_ratio()
        assert ratio > 0.95  # pure literal overhead: 32 bits per 31

    def test_constant_bitmap_compresses_to_almost_nothing(self):
        wah = WahBitVector.from_bools(np.zeros(100_000, dtype=bool))
        assert wah.compression_ratio() < 0.001

    def test_empty_vector_ratio_is_one(self):
        assert WahBitVector.zeros(0).compression_ratio() == 1.0


class TestLogicalOps:
    @pytest.mark.parametrize("da,db", [(0.01, 0.01), (0.01, 0.5), (0.5, 0.5),
                                       (0.0, 1.0), (0.99, 0.99)])
    def test_ops_agree_with_plain(self, rng, da, db):
        n = 3000
        a = rng.random(n) < da
        b = rng.random(n) < db
        va, vb = BitVector.from_bools(a), BitVector.from_bools(b)
        wa, wb = WahBitVector.from_bools(a), WahBitVector.from_bools(b)
        assert (wa & wb).decompress() == (va & vb)
        assert (wa | wb).decompress() == (va | vb)
        assert (wa ^ wb).decompress() == (va ^ vb)
        assert (~wa).decompress() == ~va
        assert wa.andnot(wb).decompress() == va.andnot(vb)

    def test_op_result_is_canonical(self, rng):
        # Result of a compressed-domain op must be byte-identical to
        # compressing the logical result, whichever internal path ran.
        a = rng.random(5000) < 0.3
        b = rng.random(5000) < 0.01
        wa, wb = WahBitVector.from_bools(a), WahBitVector.from_bools(b)
        assert (wa & wb) == WahBitVector.from_bools(a & b)
        assert (wa | wb) == WahBitVector.from_bools(a | b)

    def test_not_preserves_tail_invariant(self):
        wah = ~WahBitVector.zeros(40)
        assert wah.count() == 40

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            WahBitVector.zeros(10) & WahBitVector.zeros(20)

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            WahBitVector.zeros(10) & object()

    def test_fill_heavy_operands_stay_on_run_path(self):
        # Two long-fill vectors: the result's stream is one fill word.
        n = 31 * 100_000
        a = WahBitVector.zeros(n)
        b = WahBitVector.ones(n)
        assert len((a | b).words) == 1
        assert len((a & b).words) == 1


class TestStreamValidation:
    def test_zero_length_fill_rejected(self):
        with pytest.raises(CorruptIndexError):
            WahBitVector(31, [FILL_FLAG | 0]).decompress()

    def test_wrong_group_total_rejected(self):
        with pytest.raises(CorruptIndexError):
            WahBitVector(31 * 3, [FILL_FLAG | 1])

    @pytest.mark.parametrize("words", [
        [0x7FFFFFFF, 0x7FFFFFFF],  # a literal with bits 9..30 of group 2
        [0x7FFFFFFF, 1 << 9],  # the first bit past the tail
        [FILL_FLAG | FILL_BIT_FLAG | 2],  # a 1-fill over the partial group
    ])
    def test_tail_bits_past_nbits_rejected(self, words):
        with pytest.raises(CorruptIndexError, match="past the last"):
            WahBitVector(40, words)

    def test_tail_bits_within_nbits_accepted(self):
        ones = WahBitVector(40, [FILL_FLAG | FILL_BIT_FLAG | 1, (1 << 9) - 1])
        assert ones == WahBitVector.ones(40) and ones.count() == 40
        assert WahBitVector(62, [FILL_FLAG | FILL_BIT_FLAG | 2]).count() == 62
        assert WahBitVector(40, [FILL_FLAG | 2]).count() == 0

    def test_negative_nbits_rejected(self):
        with pytest.raises(ReproError):
            WahBitVector(-5, [])

    def test_runs_iterator(self):
        bools = np.concatenate(
            [np.zeros(62, dtype=bool), np.array([True] + [False] * 30)]
        )
        runs = list(WahBitVector.from_bools(bools).runs())
        assert runs[0] == (True, 0, 2)
        assert runs[1][0] is False

    def test_max_fill_chunking(self):
        # A fill longer than MAX_FILL_GROUPS must split across words; build
        # one synthetically with the reference coder.
        from repro.bitvector.reference import append_fill

        words: list[int] = []
        append_fill(words, MAX_FILL_GROUPS + 5, 0)
        wah = WahBitVector((MAX_FILL_GROUPS + 5) * GROUP_BITS, words)
        assert len(wah.words) == 2
        assert wah.count() == 0


class TestEquality:
    def test_equal(self, rng):
        bools = rng.random(100) < 0.5
        assert WahBitVector.from_bools(bools) == WahBitVector.from_bools(bools)

    def test_hashable(self, rng):
        bools = rng.random(100) < 0.5
        a, b = WahBitVector.from_bools(bools), WahBitVector.from_bools(bools)
        assert hash(a) == hash(b)

    def test_not_equal_to_other_types(self):
        assert WahBitVector.zeros(5) != BitVector.zeros(5)
