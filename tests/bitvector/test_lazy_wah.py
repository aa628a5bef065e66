"""A vector's held forms never show: results and memoised stored vectors.

``WahBitVector`` results carry their decoded group array and build the
canonical stream on first demand; stored vectors keep the group array their
first decode built.  Nothing observable may depend on which forms a vector
happens to hold: the words it eventually shows, the size the cost model
reads before that, counts, ids, equality, hashes, and both interchange
forms (pickle, the storage payload).  The property below runs random op
DAGs — stored and derived operands mixed, some intermediates forced into
stream form along the way — against a plain-bool oracle and the ``none``
codec.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvector import kernels
from repro.bitvector.bitvector import BitVector
from repro.bitvector.wah import (
    GROUP_BITS,
    LITERAL_MASK,
    MAX_FILL_GROUPS,
    WahBitVector,
)
from repro.storage.serialize import _vector_from_payload, _vector_payload

#: With and without a partial tail group, from a single bit to 41 groups.
LENGTHS = [1, 30, 31, 32, 62, 93, 100, 31 * 12, 31 * 40 + 7]

BINARY = ("and", "or", "xor", "andnot")
_BOOL_OPS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andnot": lambda a, b: a & ~b,
}
_VECTOR_OPS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andnot": lambda a, b: a.andnot(b),
}


@st.composite
def leaf(draw, nbits):
    kind = draw(st.sampled_from(["zeros", "ones", "single", "random", "runs"]))
    bools = np.zeros(nbits, dtype=bool)
    if kind == "ones":
        bools[:] = True
    elif kind == "single":
        bools[draw(st.integers(0, nbits - 1))] = True
    elif kind == "random":
        seed = draw(st.integers(0, 2**16))
        density = draw(st.sampled_from([0.02, 0.5, 0.98]))
        bools = np.random.default_rng(seed).random(nbits) < density
    elif kind == "runs":
        position, bit = 0, draw(st.booleans())
        while position < nbits:
            length = draw(st.integers(1, 3 * GROUP_BITS))
            bools[position:position + length] = bit
            position, bit = position + length, not bit
    return bools


@st.composite
def programs(draw):
    """``(nbits, leaves, steps)``: each step adds one node to the DAG.

    A step is ``(op, operand node indices, force)``; ``force`` reads the
    new node's ``.words`` at once, so later steps see it in stream form.
    """
    nbits = draw(st.sampled_from(LENGTHS))
    leaves = draw(st.lists(leaf(nbits), min_size=2, max_size=4))
    steps = []
    for node_count in range(len(leaves), len(leaves) + draw(st.integers(1, 8))):
        pick = st.integers(0, node_count - 1)
        op = draw(st.sampled_from((*BINARY, "not", "or_many")))
        if op == "not":
            operands = (draw(pick),)
        elif op == "or_many":
            operands = tuple(draw(st.lists(pick, min_size=1, max_size=5)))
        else:
            operands = (draw(pick), draw(pick))
        steps.append((op, operands, draw(st.booleans())))
    return nbits, leaves, steps


def _apply(op, operands, on_vector):
    if op == "not":
        return ~operands[0]
    if op == "or_many":
        if on_vector is WahBitVector:
            return WahBitVector.or_many(list(operands))
        result = operands[0]
        for other in operands[1:]:
            result = result | other
        return result
    table = _BOOL_OPS if on_vector is None else _VECTOR_OPS
    return table[op](*operands)


def _tail_is_clear(vec: WahBitVector) -> bool:
    tail = vec.nbits % GROUP_BITS
    groups = vec._group_array()
    return tail == 0 or int(groups[-1]) >> tail == 0


@settings(max_examples=120, deadline=None)
@given(programs())
def test_lazy_results_match_eager_encoding_on_every_backend(program):
    nbits, leaves, steps = program
    oracle = list(leaves)
    plain = [BitVector.from_bools(bools) for bools in leaves]
    for op, operands, _ in steps:
        oracle.append(_apply(op, [oracle[i] for i in operands], None))
        plain.append(_apply(op, [plain[i] for i in operands], BitVector))

    nodes = [WahBitVector.from_bools(bools) for bools in leaves]
    for (op, operands, force), bools in zip(steps, oracle[len(leaves):]):
        node = _apply(op, [nodes[i] for i in operands], WahBitVector)
        nodes.append(node)
        assert _tail_is_clear(node), op
        if force:
            node.words

    for node, bools, verbatim in zip(nodes, oracle, plain):
        eager = WahBitVector.from_bools(bools)
        # The cost model's size, before the stream is first read.
        assert node.words32() == len(eager.words)
        assert node.count() == verbatim.count() == int(bools.sum())
        assert np.array_equal(node.to_indices(), verbatim.to_indices())
        assert np.array_equal(node.to_bools(), bools)
        assert node.decompress() == verbatim

        thawed = pickle.loads(pickle.dumps(node))
        stored = _vector_from_payload(
            "wah", nbits, _vector_payload(node)
        )
        for copy in (node, thawed, stored):
            assert not copy.words.flags.writeable
            assert np.array_equal(copy.words, eager.words)
            assert copy == eager and hash(copy) == hash(eager)
            assert copy.words32() == len(eager.words)
            assert copy.count() == int(bools.sum())
            assert np.array_equal(
                copy.to_indices(), np.flatnonzero(bools)
            )
        # A result drops its groups for good once its stream is
        # built; a stored vector keeps what its first decode built.
        assert (node._groups is not None) == node._stored
        assert thawed._groups is not None and stored._groups is not None

    # Equality between results agrees with the none codec.
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            assert (nodes[i] == nodes[j]) == (plain[i] == plain[j])


@pytest.mark.parametrize("nbits", LENGTHS)
def test_not_of_a_derived_vector_keeps_the_tail_clear(nbits):
    zeros = WahBitVector.zeros(nbits)
    derived = WahBitVector.or_many([zeros, zeros])
    assert derived._groups is not None  # carried as groups
    flipped = ~derived
    assert _tail_is_clear(flipped)
    assert flipped.count() == nbits
    assert flipped == WahBitVector.ones(nbits)


def test_readers_race_the_stream_being_built():
    """``.words`` publishes the stream before dropping the groups, so a
    reader on another thread finds one form or the other, never neither;
    the stored operands keep their groups through it."""
    rng = np.random.default_rng(5)
    left, right = (rng.random(31 * 300 + 9) < 0.4 for _ in range(2))
    a, b = WahBitVector.from_bools(left), WahBitVector.from_bools(right)
    want = left | right
    want_ids, want_words = np.flatnonzero(want), WahBitVector.from_bools(want).words
    failures: list[BaseException] = []

    def read(vec, reader):
        try:
            if reader == 0:
                assert np.array_equal(vec.words, want_words)
            elif reader == 1:
                assert vec.count() == len(want_ids)
                assert np.array_equal(vec.to_indices(), want_ids)
            elif reader == 2:
                assert vec.words32() == len(want_words)
                assert (vec & a).count() == int(left.sum())
            else:
                assert np.array_equal(vec._group_array(), (a | b)._group_array())
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(150):
            derived = a | b  # fresh: groups held, no stream yet
            threads = [
                threading.Thread(target=read, args=(derived, i % 4))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert derived._groups is None and derived._words is not None
            assert a._groups is not None and b._groups is not None
    finally:
        sys.setswitchinterval(interval)
    assert not failures, failures[:3]


class TestEncodedLengthSplitRule:
    """``words32()`` of an unbuilt stream splits over-long fills like the
    encoder does — checked on runs, not on 33 G bits."""

    @pytest.mark.parametrize("run", [
        MAX_FILL_GROUPS - 1, MAX_FILL_GROUPS, MAX_FILL_GROUPS + 1,
        2 * MAX_FILL_GROUPS, 2 * MAX_FILL_GROUPS + 7,
    ])
    def test_run_words_match_the_encoder(self, run):
        values = np.array([0b101, 0, LITERAL_MASK, 0b11], dtype=np.uint32)
        lengths = np.array([3, run, run + 5, 1], dtype=np.int64)
        built = kernels._encode_runs(values, lengths)
        assert kernels.wah_run_words(values, lengths) == len(built)
        # 3 literals + ceil(run / MAX) + ceil((run + 5) / MAX) + 1 literal
        split = lambda n: -(-n // MAX_FILL_GROUPS)  # noqa: E731
        assert len(built) == 3 + split(run) + split(run + 5) + 1

    def test_group_array_length_matches_its_stream(self):
        groups = np.array(
            [0, 0, 5, 5, LITERAL_MASK, LITERAL_MASK, LITERAL_MASK, 0, 9],
            dtype=np.uint32,
        )
        words = kernels.wah_encode(groups)
        assert kernels.wah_encoded_length(groups) == len(words) == 6
        assert kernels.wah_encoded_length(groups[:0]) == 0
