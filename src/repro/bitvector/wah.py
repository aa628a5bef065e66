"""Word-Aligned Hybrid (WAH) compressed bitvectors (Wu, Otoo, Shoshani).

WAH splits a bitmap into 31-bit groups and encodes them in 32-bit words of
two kinds, distinguished by the most significant bit (as in the paper's
implementation, "it is the most significant bit that indicates the type of
word we are dealing with"):

* **literal word** (MSB = 0): the lower 31 bits hold one group verbatim;
* **fill word** (MSB = 1): the second most significant bit is the fill bit
  and the remaining 30 bits store the fill length, counted in 31-bit groups.

Words are stored as a read-only ``numpy`` ``uint32`` array, and every
encode/decode/count over them is a function in
:mod:`repro.bitvector.kernels`, which emits the same canonical words as
the reference coder it is tested against; see ``docs/kernels.md``.

Compressed is the *storage* form, and the decoded 31-bit group array is the
*working* form every logical operation runs on, as one ufunc.  A vector
built from data, loaded from a file or unpickled holds its word stream and
keeps its group array after the first decode, so a stored bitmap is decoded
once per process, not once per query.  The result of a logical operation
holds only its group array and builds the canonical stream when something
asks for :attr:`WahBitVector.words` (storage, ``nbytes()``, ``==``,
``hash``, pickling); then it drops the groups and never keeps them again.
A bitmap joined from consecutive row ranges (:func:`join`) is stored but
starts as a group array; it keeps its groups, builds the stream only when
asked, and sizes itself once.  A join can start from an earlier joined
bitmap whose leading rows it shares, copying those groups.  Everything
that reports a size or an identity reads the stream (or, for a joined
bitmap, the length that stream has).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.bitvector import kernels as _kernels
from repro.bitvector.bitvector import BitVector
from repro.bitvector.kernels import (  # noqa: F401  (re-exported API)
    FILL_BIT_FLAG,
    FILL_FLAG,
    GROUP_BITS,
    LITERAL_MASK,
    MAX_FILL_GROUPS,
    WORD_BITS,
    _ALL_ONES_GROUP,
)
from repro.errors import CorruptIndexError, ReproError
from repro.observability import record as _obs_record

_EMPTY_WORDS = np.empty(0, dtype=np.uint32)
_EMPTY_WORDS.setflags(write=False)

def andnot_groups(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a & ~b`` on group arrays, as a fresh array."""
    return np.bitwise_and(a, np.bitwise_xor(b, np.uint32(_ALL_ONES_GROUP)))


_NP_OPS = {
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
    "andnot": andnot_groups,
}


def _as_word_array(words: "np.ndarray | list[int]") -> np.ndarray:
    """Normalize caller-supplied words to a read-only uint32 array.

    Accepts the historical ``list[int]`` form as well as any uint32 array.
    Read-only arrays (e.g. zero-copy ``np.frombuffer`` views from storage
    loads) are aliased as-is; writable caller arrays are copied so the new
    instance can never observe later mutation.
    """
    if isinstance(words, np.ndarray):
        arr = words.astype(np.uint32, copy=False)
        if arr is words and arr.flags.writeable:
            arr = arr.copy()
    else:
        arr = np.asarray(words, dtype=np.uint32)
    if arr.flags.writeable:
        arr.setflags(write=False)
    return arr


class WahBitVector:
    """A WAH-compressed bitvector supporting compressed-domain logic ops.

    Instances are immutable.  Build one with :meth:`compress`,
    :meth:`from_bools`, :meth:`zeros`, or :meth:`ones`.

    ``_words`` is the canonical stream and ``_groups`` the decoded group
    array.  A stored vector (``_stored``) keeps whichever form it has and
    gains the other on demand: a built or loaded one holds its stream and
    gains its groups on the first decode, a joined one the reverse.  A
    logical-op result holds its groups until :attr:`words` publishes the
    stream, then drops them.  Each is published by one attribute store, and
    readers take a local copy before testing it, so another thread finds
    one form or both, never neither.  ``_length`` memoizes a joined
    vector's stream length.
    """

    __slots__ = ("_words", "_groups", "_nbits", "_hash", "_stored", "_length")

    def __init__(self, nbits: int, words: "np.ndarray | list[int]"):
        if nbits < 0:
            raise ReproError(f"nbits must be >= 0, got {nbits}")
        self._nbits = nbits
        self._words = words = _as_word_array(words)
        self._groups = None
        self._hash: int | None = None
        self._stored = True
        self._length = None
        covered = int(_kernels.wah_stream_lengths(words).sum())
        if covered != self.ngroups:
            raise CorruptIndexError(
                f"WAH words cover {covered} groups, "
                f"expected {self.ngroups} for {nbits} bits"
            )
        tail = nbits % GROUP_BITS
        if tail and len(words):
            # The last word covers the partial group: a 1-fill sets every
            # bit of it, a literal may set only the low ``tail`` bits.
            last = int(words[-1])
            if (last & FILL_BIT_FLAG if last & FILL_FLAG else last >> tail):
                raise CorruptIndexError(
                    f"WAH words set bits past the last of {nbits}"
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_words(cls, nbits: int, words: np.ndarray) -> "WahBitVector":
        """Wrap kernel output without re-validating the stream."""
        vec = object.__new__(cls)
        vec._nbits = nbits
        if words.flags.writeable:
            words.setflags(write=False)
        vec._words = words
        vec._groups = None
        vec._hash = None
        vec._stored = True
        vec._length = None
        return vec

    @classmethod
    def _from_groups(
        cls, nbits: int, groups: np.ndarray, stored: bool = False
    ) -> "WahBitVector":
        """Wrap a group array; the stream is built on demand.

        A logical op's result is not ``stored``: publishing its stream
        drops the groups.  A joined bitmap is: it keeps them.
        """
        vec = object.__new__(cls)
        vec._nbits = nbits
        vec._words = None
        vec._groups = groups
        vec._hash = None
        vec._stored = stored
        vec._length = None
        return vec

    @classmethod
    def compress(cls, vec: BitVector) -> "WahBitVector":
        """Compress a verbatim bitvector."""
        return cls.from_bools(vec.to_bools())

    def _group_array(self, decoded: list | None = None) -> np.ndarray:
        """The per-group value array, decoding the stream if it is not held.

        A stored vector keeps what it decodes.  A stream that had to be
        decoded is appended to ``decoded`` (the ``wah.*`` counters charge
        for exactly those).
        """
        groups = self._groups
        if groups is None:
            words = self._words
            groups = _kernels.wah_decode(words, self.ngroups)
            if decoded is not None:
                decoded.append(words)
            if self._stored:
                groups.setflags(write=False)
                self._groups = groups
        return groups

    @classmethod
    def from_bools(cls, bools: np.ndarray) -> "WahBitVector":
        """Compress a boolean array."""
        bools = np.asarray(bools, dtype=bool)
        nbits = len(bools)
        ngroups = (nbits + GROUP_BITS - 1) // GROUP_BITS
        padded = np.zeros(ngroups * GROUP_BITS, dtype=bool)
        padded[:nbits] = bools
        groups = _pack_groups(padded, ngroups)
        return cls._from_words(nbits, _kernels.wah_encode(groups))

    @classmethod
    def zeros(cls, nbits: int) -> "WahBitVector":
        """An all-zero compressed vector."""
        ngroups = (nbits + GROUP_BITS - 1) // GROUP_BITS
        return cls._from_words(nbits, _fill_run(ngroups, 0))

    @classmethod
    def ones(cls, nbits: int) -> "WahBitVector":
        """An all-one compressed vector (tail bits beyond ``nbits`` clear)."""
        ngroups = (nbits + GROUP_BITS - 1) // GROUP_BITS
        tail = nbits % GROUP_BITS
        if tail:
            head = _fill_run(ngroups - 1, 1)
            words = np.append(head, np.uint32((1 << tail) - 1))
        else:
            words = _fill_run(ngroups, 1)
        return cls._from_words(nbits, words)

    # -- accessors ---------------------------------------------------------

    @property
    def nbits(self) -> int:
        """Number of bits represented."""
        return self._nbits

    @property
    def ngroups(self) -> int:
        """Number of 31-bit groups (including a trailing partial group)."""
        return (self._nbits + GROUP_BITS - 1) // GROUP_BITS

    @property
    def words(self) -> np.ndarray:
        """The compressed 32-bit words as a read-only uint32 array.

        On a logical-op result this is where the stream gets built; the
        group array is dropped once it is published.
        """
        words = self._words
        if words is None:
            groups = self._groups
            if groups is None:  # another thread published it meanwhile
                return self._words
            words = _kernels.wah_encode(groups)
            words.setflags(write=False)
            _obs_record("wah.words_emitted", len(words))
            self._words = words
            if not self._stored:
                self._groups = None
        return words

    def words32(self) -> int:
        """Stored size in 32-bit word units (the paper's cost currency).

        A logical-op result reports the length its canonical stream would
        have without building it.
        """
        words = self._words
        if words is not None:
            return len(words)
        groups = self._groups
        if groups is None:  # another thread published the stream meanwhile
            return len(self._words)
        if self._stored:
            if self._length is None:
                self._length = _kernels.wah_encoded_length(groups)
            return self._length
        return _kernels.wah_encoded_length(groups)

    def nbytes(self) -> int:
        """Compressed payload size in bytes (4 bytes per WAH word)."""
        return int(self.words.nbytes)

    def compression_ratio(self) -> float:
        """Compressed size over verbatim size; < 1 means compression helped."""
        verbatim = (self._nbits + 7) // 8
        if verbatim == 0:
            return 1.0
        return 4 * self.words32() / verbatim

    def count(self) -> int:
        """Number of 1-bits, off the group array if held, else the stream."""
        groups = self._groups
        if groups is None:
            return _kernels.wah_count(self._words)
        return int(np.bitwise_count(groups).sum(dtype=np.int64))

    def density(self) -> float:
        """Fraction of 1-bits."""
        if self._nbits == 0:
            return 0.0
        return self.count() / self._nbits

    def decompress(self) -> BitVector:
        """Expand back to a verbatim :class:`BitVector`."""
        return BitVector.from_bools(self.to_bools())

    def to_bools(self) -> np.ndarray:
        """Expand to a boolean array."""
        # One unpack of the groups' little-endian bytes: 32 bits per group,
        # of which the first 31 are the group's.
        as_bytes = self._group_array().astype("<u4", copy=False).view(np.uint8)
        bits = np.unpackbits(as_bytes, bitorder="little").view(bool)
        return bits.reshape(-1, WORD_BITS)[:, :GROUP_BITS].reshape(-1)[: self._nbits]

    def to_indices(self) -> np.ndarray:
        """Sorted positions of the 1-bits."""
        return group_ids(self._group_array(), self._nbits)

    def runs(self) -> Iterator[tuple[bool, int, int]]:
        """Yield ``(is_fill, literal_or_fill_value, ngroups)`` per word."""
        for word in self.words.tolist():
            if word & FILL_FLAG:
                bit = 1 if word & FILL_BIT_FLAG else 0
                yield True, bit, word & MAX_FILL_GROUPS
            else:
                yield False, word, 1

    def window(self, first: int, stop: int) -> "WahBitVector":
        """Groups ``[first, stop)`` — bits ``31 * first`` onwards — as a
        vector over a view of this one's group array."""
        nbits = min(self._nbits, stop * GROUP_BITS) - first * GROUP_BITS
        return WahBitVector._from_groups(nbits, self._group_array()[first:stop])

    # -- logical operations -------------------------------------------------

    def _binary_op(self, other: "WahBitVector", opcode: str) -> "WahBitVector":
        if not isinstance(other, WahBitVector):
            raise TypeError(f"expected WahBitVector, got {type(other).__name__}")
        if other._nbits != self._nbits:
            raise ReproError(
                f"bitvector length mismatch: {self._nbits} vs {other._nbits}"
            )
        decoded: list[np.ndarray] = []
        result = WahBitVector._from_groups(
            self._nbits,
            _NP_OPS[opcode](self._group_array(decoded), other._group_array(decoded)),
        )
        _record_ops(1, decoded)
        return result

    @classmethod
    def or_many(cls, operands: list["WahBitVector"]) -> "WahBitVector":
        """OR several compressed vectors in one pass.

        Wide unions (equality-encoded range queries OR dozens of value
        bitmaps) degrade under pairwise compressed ops because the
        accumulating result densifies and every subsequent op pays for it.
        The standard fix (FastBit does the same) is to decode each operand
        once into an uncompressed accumulator: the compressed words *read*
        are just the operands' own words.
        """
        if not operands:
            raise ReproError("or_many requires at least one operand")
        first = operands[0]
        for other in operands[1:]:
            if other._nbits != first._nbits:
                raise ReproError(
                    f"bitvector length mismatch: {first._nbits} vs {other._nbits}"
                )
        if len(operands) == 1:
            return first
        decoded: list[np.ndarray] = []
        acc = np.bitwise_or(
            first._group_array(decoded), operands[1]._group_array(decoded)
        )
        for other in operands[2:]:
            np.bitwise_or(acc, other._group_array(decoded), out=acc)
        _record_ops(len(operands) - 1, decoded)
        return cls._from_groups(first._nbits, acc)

    def __and__(self, other: "WahBitVector") -> "WahBitVector":
        return self._binary_op(other, "and")

    def __or__(self, other: "WahBitVector") -> "WahBitVector":
        return self._binary_op(other, "or")

    def __xor__(self, other: "WahBitVector") -> "WahBitVector":
        return self._binary_op(other, "xor")

    def __invert__(self) -> "WahBitVector":
        decoded: list[np.ndarray] = []
        groups = invert_groups(self._group_array(decoded), self._nbits)
        _record_ops(1, decoded)
        return WahBitVector._from_groups(self._nbits, groups)

    def andnot(self, other: "WahBitVector") -> "WahBitVector":
        """``self & ~other`` on the compressed forms."""
        return self._binary_op(other, "andnot")

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WahBitVector):
            return NotImplemented
        return self._nbits == other._nbits and bool(
            np.array_equal(self.words, other.words)
        )

    def __hash__(self) -> int:
        # Cached: instances are immutable, so the digest never changes.
        if self._hash is None:
            self._hash = hash((self._nbits, self.words.tobytes()))
        return self._hash

    def __reduce__(self):
        # The stream is the interchange form; the digest is per-process.
        return type(self)._from_words, (self._nbits, self.words)

    def __repr__(self) -> str:
        return (
            f"WahBitVector(nbits={self._nbits}, words={self.words32()}, "
            f"ratio={self.compression_ratio():.3f})"
        )


def join(
    pieces: "list[WahBitVector]",
    head: WahBitVector | None = None,
    head_bits: int = 0,
) -> WahBitVector:
    """The bitmap over the pieces' rows laid end to end, as one stored vector.

    Each piece's group array is used once and not kept: a stored piece
    that held its groups drops them.  Where the rows before a piece fill
    whole 31-bit groups, its groups are copied as they are; elsewhere (the
    seams a delete leaves) they are shifted into place.  ``head``, when
    given, is a joined bitmap whose first ``head_bits`` bits are the rows
    before the pieces: those are copied from its group array, not decoded.
    The result is the canonical bitmap of the joined rows.
    """
    nbits = head_bits + sum(piece._nbits for piece in pieces)
    groups = np.zeros((nbits + GROUP_BITS - 1) // GROUP_BITS, dtype=np.uint32)
    decoded: list[np.ndarray] = []
    start = 0
    if head is not None:
        whole, tail = divmod(head_bits, GROUP_BITS)
        source = head._group_array(decoded)
        groups[:whole] = source[:whole]
        if tail:
            groups[whole] = source[whole] & np.uint32((1 << tail) - 1)
        start = head_bits
    for piece in pieces:
        part = piece._groups
        if part is None:
            part = _kernels.wah_decode(piece._words, piece.ngroups)
            decoded.append(piece._words)
        elif piece._stored and piece._words is not None:
            piece._groups = None
        first, offset = divmod(start, GROUP_BITS)
        if offset == 0:
            groups[first:first + len(part)] = part
        else:
            # Bit t of a piece group lands at bit offset + t: its low bits
            # fill the rest of one group, its high bits start the next.
            low = (part << np.uint32(offset)) & np.uint32(_ALL_ONES_GROUP)
            high = part >> np.uint32(GROUP_BITS - offset)
            stop = min(len(groups), first + len(part) + 1)
            groups[first:first + len(part)] |= low
            groups[first + 1:stop] |= high[:stop - first - 1]
        start += piece._nbits
    _obs_record("wah.words_decoded", sum(map(len, decoded)))
    groups.setflags(write=False)
    return WahBitVector._from_groups(nbits, groups, stored=True)


#: At or below this share of nonzero groups :func:`group_ids` unpacks only
#: those groups; above it, one unpack of every group is cheaper.  Measured on
#: 100k-bit group arrays (``docs/kernels.md``, "The ids kernel").
SPARSE_GROUP_SHARE = 0.6


def group_ids(groups: np.ndarray, nbits: int) -> np.ndarray:
    """Sorted positions of the 1-bits of a group array (or a view of one).

    Bits past ``nbits`` must be clear, as in every group array here.  A
    sparse array unpacks only its nonzero groups; a dense one unpacks every
    group and drops the 32nd bit of each.
    """
    groups = groups.astype("<u4", copy=False)
    if np.count_nonzero(groups) > SPARSE_GROUP_SHARE * len(groups):
        bits = np.unpackbits(groups.view(np.uint8), bitorder="little").view(bool)
        bits = bits.reshape(-1, WORD_BITS)[:, :GROUP_BITS].reshape(-1)
        return np.flatnonzero(bits[:nbits])
    nonzero = (groups != 0).nonzero()[0]
    chosen = groups[nonzero]
    bits = np.unpackbits(chosen.view(np.uint8), bitorder="little").view(bool)
    ids = bits.nonzero()[0]
    # Bit p of the unpacked groups is bit p % 32 of group nonzero[p // 32],
    # i.e. row p + 31 * nonzero[i] - 32 * i for the i-th unpacked group.
    offsets = nonzero * GROUP_BITS
    offsets -= np.arange(0, WORD_BITS * len(nonzero), WORD_BITS)
    ids += np.repeat(offsets, np.bitwise_count(chosen))
    return ids


def invert_groups(groups: np.ndarray, nbits: int) -> np.ndarray:
    """NOT of a group array, as a fresh array.

    XOR with all-ones groups whose last group is masked to the tail, which
    keeps the bits past ``nbits`` clear.
    """
    out = np.bitwise_xor(groups, np.uint32(_ALL_ONES_GROUP))
    tail = nbits % GROUP_BITS
    if tail:
        out[-1] &= np.uint32((1 << tail) - 1)
    return out


def _record_ops(ops: int, decoded: list[np.ndarray]) -> None:
    """Charge ``ops`` logical operations and the streams they decoded."""
    _obs_record("wah.ops", ops)
    _obs_record("wah.words_decoded", sum(map(len, decoded)))


def _fill_run(ngroups: int, bit: int) -> np.ndarray:
    """Canonical fill-word stream covering ``ngroups`` groups of ``bit``."""
    if ngroups <= 0:
        return _EMPTY_WORDS
    flag = FILL_FLAG | (FILL_BIT_FLAG if bit else 0)
    nwords = (ngroups + MAX_FILL_GROUPS - 1) // MAX_FILL_GROUPS
    words = np.full(nwords, flag | MAX_FILL_GROUPS, dtype=np.uint32)
    words[-1] = flag | (ngroups - (nwords - 1) * MAX_FILL_GROUPS)
    return words


def _pack_groups(padded: np.ndarray, ngroups: int) -> np.ndarray:
    """Pack a (ngroups * 31)-long bool array into uint32 group values.

    Each 31-bit group is padded to 32 bits (zero MSB) and packed with
    ``np.packbits`` — one C pass instead of a bool-matrix matmul.
    """
    if ngroups == 0:
        return np.empty(0, dtype=np.uint32)
    wide = np.zeros((ngroups, WORD_BITS), dtype=bool)
    wide[:, :GROUP_BITS] = padded.reshape(ngroups, GROUP_BITS)
    packed = np.packbits(wide.reshape(-1), bitorder="little")
    return packed.view("<u4").astype(np.uint32, copy=False)
