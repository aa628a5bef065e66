"""The numpy coder against the reference coder, word for word.

The contract of :mod:`repro.bitvector.kernels` is stronger than "same
bits": it must emit the exact same canonical word stream (and BBC byte
stream) as the one-step-per-word coder in :mod:`repro.bitvector.reference`
for every input, decode and count every stream the same way, and reject
every corrupt stream with the same error.  That is what keeps equality,
hashing, serialization and the word-based cost model independent of how
the coder is written.  Each property calls both coders directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvector import kernels, reference
from repro.bitvector.bbc import BbcBitVector
from repro.bitvector.wah import (
    FILL_BIT_FLAG,
    FILL_FLAG,
    GROUP_BITS,
    LITERAL_MASK,
    MAX_FILL_GROUPS,
    WahBitVector,
)
from repro.errors import CorruptIndexError

runs = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=80)),
    min_size=0,
    max_size=30,
)


def _bools_from_runs(run_list) -> np.ndarray:
    parts = [np.full(length, bit, dtype=bool) for bit, length in run_list]
    if not parts:
        return np.zeros(0, dtype=bool)
    return np.concatenate(parts)


def _pair_from(run_a, run_b):
    a = _bools_from_runs(run_a)
    b = _bools_from_runs(run_b)
    n = max(len(a), len(b))
    return np.pad(a, (0, n - len(a))), np.pad(b, (0, n - len(b)))


def _assert_coders_agree(vec: WahBitVector) -> None:
    """``vec``'s words are the reference encoding of its groups, and both
    coders decode and count them the same way."""
    groups = vec._group_array()
    words = vec.words
    expected = reference.wah_encode(groups)
    assert words.dtype == np.uint32
    assert np.array_equal(words, expected), (
        f"numpy words differ from the reference: "
        f"{words.tolist()} != {expected.tolist()}"
    )
    assert np.array_equal(
        kernels.wah_decode(words, vec.ngroups),
        reference.wah_decode(words, vec.ngroups),
    )
    assert kernels.wah_count(words) == reference.wah_count(words)


@settings(max_examples=100, deadline=None)
@given(runs, runs)
def test_binary_ops_word_identical_across_backends(run_a, run_b):
    a, b = _pair_from(run_a, run_b)
    wa, wb = WahBitVector.from_bools(a), WahBitVector.from_bools(b)
    for op in ("__and__", "__or__", "__xor__", "andnot"):
        _assert_coders_agree(getattr(wa, op)(wb))


@settings(max_examples=100, deadline=None)
@given(runs)
def test_not_and_compress_word_identical_across_backends(run_list):
    bools = _bools_from_runs(run_list)
    wah = WahBitVector.from_bools(bools)
    _assert_coders_agree(WahBitVector.from_bools(bools))
    _assert_coders_agree(~wah)


@settings(max_examples=60, deadline=None)
@given(st.lists(runs, min_size=3, max_size=6))
def test_or_many_word_identical_across_backends(run_lists):
    n = max((sum(r for _, r in rl) for rl in run_lists), default=0)
    operands = [
        WahBitVector.from_bools(np.pad(_bools_from_runs(rl),
                                       (0, n - len(_bools_from_runs(rl)))))
        for rl in run_lists
    ]
    _assert_coders_agree(WahBitVector.or_many(operands))


@settings(max_examples=100, deadline=None)
@given(runs)
def test_count_identical_across_backends(run_list):
    bools = _bools_from_runs(run_list)
    words = WahBitVector.from_bools(bools).words
    assert kernels.wah_count(words) == reference.wah_count(words) == int(
        bools.sum()
    )


@settings(max_examples=100, deadline=None)
@given(runs)
def test_bbc_streams_byte_identical_across_backends(run_list):
    bools = _bools_from_runs(run_list)
    raw = np.packbits(bools, bitorder="little")
    data, fills, literals = kernels.bbc_encode(raw)
    ref_data, ref_fills, ref_literals = reference.bbc_encode(raw)
    assert np.array_equal(data, ref_data)
    assert (fills, literals) == (ref_fills, ref_literals)
    assert np.array_equal(BbcBitVector.from_bools(bools).data, ref_data)
    # ... and both coders decode the reference stream identically.
    out, tokens = kernels.bbc_decode(ref_data, len(raw))
    ref_out, ref_tokens = reference.bbc_decode(ref_data, len(raw))
    assert np.array_equal(out, raw) and np.array_equal(ref_out, raw)
    assert tokens == ref_tokens == fills + literals


def _corrupt(data: np.ndarray, nbytes: int, kind: str, first: bool):
    """A BBC stream and expected length with one ``kind`` of fault: a
    zero-length fill token or a literal token claiming more bytes than
    follow (before the stream when ``first``, else after it), or a
    decoded length that is off by one."""
    if kind == "wrong_length":
        return data, nbytes - 1 if nbytes and not first else nbytes + 1
    if kind == "zero_fill":
        bad = b"\xc0"
    else:  # a literal token of 5 bytes with 2 left: never a valid prefix
        bad, first = b"\x05ab", False
    stream = data.tobytes()
    return np.frombuffer(bad + stream if first else stream + bad, np.uint8), nbytes


@settings(max_examples=100, deadline=None)
@given(
    runs,
    st.sampled_from(["zero_fill", "truncated_literal", "wrong_length"]),
    st.booleans(),
)
def test_corrupt_bbc_streams_raise_the_same_error(run_list, kind, first):
    raw = np.packbits(_bools_from_runs(run_list), bitorder="little")
    data, nbytes = _corrupt(reference.bbc_encode(raw)[0], len(raw), kind, first)
    with pytest.raises(CorruptIndexError) as numpy_error:
        kernels.bbc_decode(data, nbytes)
    with pytest.raises(CorruptIndexError) as reference_error:
        reference.bbc_decode(data, nbytes)
    assert str(numpy_error.value) == str(reference_error.value)


class TestFillBoundaries:
    """MAX_FILL_GROUPS edges, exercised at word level (no group expansion)."""

    def _giant(self, ngroups: int, bit: int) -> WahBitVector:
        words: list[int] = []
        reference.append_fill(words, ngroups, bit)
        return WahBitVector(ngroups * GROUP_BITS, words)

    @pytest.mark.parametrize("ngroups", [
        MAX_FILL_GROUPS - 1, MAX_FILL_GROUPS, MAX_FILL_GROUPS + 1,
        2 * MAX_FILL_GROUPS, 2 * MAX_FILL_GROUPS + 7,
    ])
    def test_giant_fill_runs_encode_identically(self, ngroups):
        # The numpy encoder's run core and the reference coder split
        # over-long fills the same way, next to literals and to each other.
        values = np.array([0b101, 0, LITERAL_MASK, 0b11], dtype=np.uint32)
        lengths = np.array([1, ngroups, ngroups, 1], dtype=np.int64)
        expected: list[int] = []
        reference.append_literal(expected, 0b101)
        reference.append_fill(expected, ngroups, 0)
        reference.append_fill(expected, ngroups, 1)
        reference.append_literal(expected, 0b11)
        words = kernels._encode_runs(values, lengths)
        assert words.tolist() == expected
        assert kernels.wah_run_words(values, lengths) == len(words)

    def test_giant_fill_split_is_canonical(self):
        wah = self._giant(2 * MAX_FILL_GROUPS + 7, 1)
        assert wah.words.tolist() == [
            FILL_FLAG | FILL_BIT_FLAG | MAX_FILL_GROUPS,
            FILL_FLAG | FILL_BIT_FLAG | MAX_FILL_GROUPS,
            FILL_FLAG | FILL_BIT_FLAG | 7,
        ]

    def test_giant_fill_count_identical(self):
        ones = self._giant(MAX_FILL_GROUPS + 3, 1)
        expected = (MAX_FILL_GROUPS + 3) * GROUP_BITS
        assert ones.count() == expected
        assert kernels.wah_count(ones.words) == expected
        assert reference.wah_count(ones.words) == expected

    def test_literal_next_to_max_fill(self):
        expected: list[int] = []
        reference.append_fill(expected, MAX_FILL_GROUPS, 0)
        reference.append_literal(expected, 0b101)
        nbits = (MAX_FILL_GROUPS + 1) * GROUP_BITS
        wah = WahBitVector(nbits, expected)
        values = np.array([0, 0b101], dtype=np.uint32)
        lengths = np.array([MAX_FILL_GROUPS, 1], dtype=np.int64)
        assert kernels._encode_runs(values, lengths).tolist() == expected
        assert wah.words32() == 2
        assert wah.count() == 2
        assert kernels.wah_count(wah.words) == reference.wah_count(wah.words)


class TestEdgeCases:
    @pytest.mark.parametrize("make", [
        lambda: WahBitVector.zeros(0),
        lambda: WahBitVector.zeros(31),
        lambda: WahBitVector.ones(31),
        lambda: WahBitVector.ones(40),
        lambda: WahBitVector.zeros(31 * 5000),
        lambda: WahBitVector.ones(31 * 5000),
    ])
    def test_constant_vector_ops_identical(self, make):
        vec = make()
        _assert_coders_agree(vec ^ vec)
        _assert_coders_agree(~vec)

    def test_empty_vector_round_trips_on_all_backends(self):
        vec = WahBitVector.zeros(0)
        assert vec.words.tolist() == []
        assert vec.count() == 0
        assert vec.decompress().nbits == 0
        empty = np.empty(0, dtype=np.uint32)
        for coder in (kernels, reference):
            assert coder.wah_encode(empty).tolist() == []
            assert coder.wah_decode(empty, 0).tolist() == []
            assert coder.wah_count(empty) == 0

    def test_zero_length_fill_rejected_under_all_backends(self):
        with pytest.raises(CorruptIndexError):
            WahBitVector(31 * 2, [FILL_FLAG | 2, FILL_FLAG | 0])

    def test_words_are_read_only(self):
        wah = WahBitVector.ones(100)
        assert not wah.words.flags.writeable
        with pytest.raises(ValueError):
            wah.words[0] = 0

    def test_construction_from_ndarray_matches_list(self):
        words = [FILL_FLAG | 3, 0b1011]
        from_list = WahBitVector(31 * 4, words)
        from_array = WahBitVector(31 * 4, np.array(words, dtype=np.uint32))
        assert from_list == from_array
        assert hash(from_list) == hash(from_array)


class TestQueryLevelIdentity:
    """End-to-end: what an engine stores is what the reference would."""

    def test_engine_results_identical_across_backends(self):
        from repro.core.engine import IncompleteDatabase
        from repro.dataset.synthetic import generate_uniform_table
        from repro.query.model import MissingSemantics, RangeQuery

        table = generate_uniform_table(
            2_000, {"a": 20, "b": 10}, {"a": 0.1, "b": 0.2}, seed=9
        )
        db = IncompleteDatabase(table)
        db.create_index("wah", "bre")
        db.create_index("bbc", "bre", codec="bbc")
        query = RangeQuery.from_bounds({"a": (3, 9), "b": (2, 5)})
        for semantics in MissingSemantics:
            assert np.array_equal(
                db.execute(query, semantics, using="wah").record_ids,
                db.execute(query, semantics, using="bbc").record_ids,
            )
        for vec in db.get_index("wah").index.stored_bitmaps():
            _assert_coders_agree(vec)
        for vec in db.get_index("bbc").index.stored_bitmaps():
            nbytes = (vec.nbits + 7) // 8
            raw = reference.bbc_decode(vec.data, nbytes)[0]
            assert np.array_equal(kernels.bbc_decode(vec.data, nbytes)[0], raw)
            assert np.array_equal(reference.bbc_encode(raw)[0], vec.data)
