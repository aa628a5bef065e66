"""Unit tests for the verbatim :class:`BitVector`."""

import numpy as np
import pytest

from repro.bitvector.bitvector import BitVector
from repro.errors import ReproError


class TestConstruction:
    def test_zeros_has_no_set_bits(self):
        vec = BitVector.zeros(100)
        assert vec.count() == 0
        assert vec.nbits == 100

    def test_ones_sets_every_bit(self):
        vec = BitVector.ones(100)
        assert vec.count() == 100
        assert all(vec.get(i) for i in range(100))

    def test_ones_masks_tail_bits(self):
        # 70 bits spans two 64-bit words; the upper 58 bits of word 2 must
        # stay clear so count() is exact.
        vec = BitVector.ones(70)
        assert vec.count() == 70
        assert int(vec.words[1]) == (1 << 6) - 1

    def test_from_bools_roundtrip(self):
        bools = np.array([True, False, True, True, False])
        vec = BitVector.from_bools(bools)
        assert np.array_equal(vec.to_bools(), bools)

    def test_from_indices(self):
        vec = BitVector.from_indices(10, np.array([0, 3, 9]))
        assert vec.to_indices().tolist() == [0, 3, 9]

    def test_from_indices_rejects_a_negative_id(self):
        # A negative id used to wrap to a bit counted from the end.
        with pytest.raises(ReproError, match="-1"):
            BitVector.from_indices(10, [-1])

    def test_from_indices_rejects_an_id_past_the_end(self):
        # An id >= nbits used to raise numpy's bare IndexError.
        with pytest.raises(ReproError, match="10 is outside"):
            BitVector.from_indices(10, [3, 10])

    def test_empty_vector(self):
        vec = BitVector.zeros(0)
        assert vec.count() == 0
        assert len(vec.to_bools()) == 0

    def test_negative_nbits_rejected(self):
        with pytest.raises(ReproError):
            BitVector(-1)

    def test_wrong_word_count_rejected(self):
        with pytest.raises(ReproError):
            BitVector(100, np.zeros(1, dtype=np.uint64))


class TestAccessors:
    def test_get_bounds_checked(self):
        vec = BitVector.zeros(10)
        with pytest.raises(IndexError):
            vec.get(10)
        with pytest.raises(IndexError):
            vec.get(-1)

    def test_get_reads_individual_bits(self):
        vec = BitVector.from_indices(70, np.array([0, 64, 69]))
        assert vec.get(0) and vec.get(64) and vec.get(69)
        assert not vec.get(1) and not vec.get(63)

    def test_density(self):
        vec = BitVector.from_indices(100, np.arange(25))
        assert vec.density() == pytest.approx(0.25)

    def test_density_of_empty_vector_is_zero(self):
        assert BitVector.zeros(0).density() == 0.0

    def test_nbytes_is_verbatim_size(self):
        assert BitVector.zeros(8).nbytes() == 1
        assert BitVector.zeros(9).nbytes() == 2
        assert BitVector.zeros(100_000).nbytes() == 12_500

    def test_len(self):
        assert len(BitVector.zeros(42)) == 42


class TestLogicalOps:
    @pytest.fixture
    def pair(self, rng):
        a = rng.random(200) < 0.5
        b = rng.random(200) < 0.5
        return a, b, BitVector.from_bools(a), BitVector.from_bools(b)

    def test_and(self, pair):
        a, b, va, vb = pair
        assert np.array_equal((va & vb).to_bools(), a & b)

    def test_or(self, pair):
        a, b, va, vb = pair
        assert np.array_equal((va | vb).to_bools(), a | b)

    def test_xor(self, pair):
        a, b, va, vb = pair
        assert np.array_equal((va ^ vb).to_bools(), a ^ b)

    def test_not(self, pair):
        a, _, va, _ = pair
        assert np.array_equal((~va).to_bools(), ~a)

    def test_not_preserves_tail_invariant(self):
        vec = ~BitVector.zeros(70)
        assert vec.count() == 70  # not 128

    def test_andnot(self, pair):
        a, b, va, vb = pair
        assert np.array_equal(va.andnot(vb).to_bools(), a & ~b)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            BitVector.zeros(10) & BitVector.zeros(11)

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            BitVector.zeros(10) & object()


class TestEquality:
    def test_equal_vectors(self):
        a = BitVector.from_indices(50, np.array([1, 2]))
        b = BitVector.from_indices(50, np.array([1, 2]))
        assert a == b
        assert hash(a) == hash(b)

    def test_different_bits_unequal(self):
        a = BitVector.from_indices(50, np.array([1]))
        b = BitVector.from_indices(50, np.array([2]))
        assert a != b

    def test_different_lengths_unequal(self):
        assert BitVector.zeros(10) != BitVector.zeros(11)

    def test_non_bitvector_comparison(self):
        assert BitVector.zeros(10) != "not a bitvector"
