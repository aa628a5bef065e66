"""Uncompressed bitvectors backed by 64-bit numpy words.

This is the verbatim (literal) representation used as the semantic reference
for the compressed codecs: every compressed bitvector must decompress to an
equal :class:`BitVector`, and every compressed logical operation must agree
with the corresponding :class:`BitVector` operation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError

_WORD_BITS = 64


class BitVector:
    """A fixed-length vector of bits with word-parallel logical operations.

    Bit ``i`` of the vector is bit ``i % 64`` of word ``i // 64``.  Unused
    bits in the final word are always zero; operations preserve this
    invariant (it makes :meth:`count` and equality checks exact).
    """

    __slots__ = ("_words", "_nbits")

    def __init__(self, nbits: int, words: np.ndarray | None = None):
        if nbits < 0:
            raise ReproError(f"nbits must be >= 0, got {nbits}")
        self._nbits = nbits
        num_words = (nbits + _WORD_BITS - 1) // _WORD_BITS
        if words is None:
            self._words = np.zeros(num_words, dtype=np.uint64)
        else:
            if len(words) != num_words:
                raise ReproError(
                    f"expected {num_words} words for {nbits} bits, got {len(words)}"
                )
            words = words.astype(np.uint64, copy=False)
            if not words.flags.writeable:
                # e.g. an np.frombuffer view of a bytes payload: _mask_tail
                # and the in-place kernels need a writable buffer.
                words = words.copy()
            self._words = words
            self._mask_tail()

    def _mask_tail(self) -> None:
        tail = self._nbits % _WORD_BITS
        if tail and len(self._words):
            self._words[-1] &= np.uint64((1 << tail) - 1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bools(cls, bools: np.ndarray) -> "BitVector":
        """Build from a boolean (or 0/1 integer) array."""
        bools = np.asarray(bools, dtype=bool)
        nbits = len(bools)
        packed = np.packbits(bools, bitorder="little")
        num_words = (nbits + _WORD_BITS - 1) // _WORD_BITS
        padded = np.zeros(num_words * 8, dtype=np.uint8)
        padded[: len(packed)] = packed
        words = padded.view(np.uint64)
        return cls(nbits, words.copy())

    @classmethod
    def from_indices(cls, nbits: int, indices: np.ndarray) -> "BitVector":
        """Build a vector with 1-bits exactly at ``indices``.

        Every index must lie in ``[0, nbits)``; a negative one would
        otherwise wrap to a bit counted from the end.
        """
        indices = np.asarray(indices, dtype=np.int64)
        outside = indices[(indices < 0) | (indices >= nbits)]
        if len(outside):
            raise ReproError(
                f"bit index {int(outside[0])} is outside [0, {nbits})"
            )
        bools = np.zeros(nbits, dtype=bool)
        bools[indices] = True
        return cls.from_bools(bools)

    @classmethod
    def zeros(cls, nbits: int) -> "BitVector":
        """An all-zero vector."""
        return cls(nbits)

    @classmethod
    def ones(cls, nbits: int) -> "BitVector":
        """An all-one vector."""
        vec = cls(nbits)
        vec._words[:] = np.uint64(0xFFFFFFFFFFFFFFFF)
        vec._mask_tail()
        return vec

    # -- accessors ---------------------------------------------------------

    @property
    def nbits(self) -> int:
        """Number of bits in the vector."""
        return self._nbits

    @property
    def words(self) -> np.ndarray:
        """The underlying 64-bit word array (do not mutate)."""
        return self._words

    def get(self, index: int) -> bool:
        """Value of bit ``index``."""
        if not 0 <= index < self._nbits:
            raise IndexError(f"bit index {index} out of range 0..{self._nbits - 1}")
        word = int(self._words[index // _WORD_BITS])
        return bool((word >> (index % _WORD_BITS)) & 1)

    def to_bools(self) -> np.ndarray:
        """Expand to a boolean array of length :attr:`nbits`."""
        as_bytes = self._words.view(np.uint8)
        bits = np.unpackbits(as_bytes, bitorder="little")
        return bits[: self._nbits].astype(bool)

    def to_indices(self) -> np.ndarray:
        """Sorted positions of the 1-bits."""
        return np.flatnonzero(self.to_bools())

    def count(self) -> int:
        """Number of 1-bits (population count)."""
        return int(np.bitwise_count(self._words).sum())

    def density(self) -> float:
        """Fraction of 1-bits (the paper's *bit density*)."""
        if self._nbits == 0:
            return 0.0
        return self.count() / self._nbits

    def nbytes(self) -> int:
        """Verbatim size of the bitmap in bytes: ``ceil(nbits / 8)``.

        This is the size an uncompressed on-disk bitmap would occupy, and the
        denominator of every compression ratio in the paper.
        """
        return (self._nbits + 7) // 8

    def words32(self) -> int:
        """Stored size in 32-bit word units (the paper's cost currency)."""
        return 2 * len(self._words)  # 64-bit words -> 32-bit word units

    # -- logical operations --------------------------------------------------

    def _check_compatible(self, other: "BitVector") -> None:
        if not isinstance(other, BitVector):
            raise TypeError(f"expected BitVector, got {type(other).__name__}")
        if other._nbits != self._nbits:
            raise ReproError(
                f"bitvector length mismatch: {self._nbits} vs {other._nbits}"
            )

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector(self._nbits, self._words & other._words)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector(self._nbits, self._words | other._words)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector(self._nbits, self._words ^ other._words)

    def __invert__(self) -> "BitVector":
        return BitVector(self._nbits, ~self._words)

    def andnot(self, other: "BitVector") -> "BitVector":
        """``self & ~other`` in one pass."""
        self._check_compatible(other)
        return BitVector(self._nbits, self._words & ~other._words)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._nbits == other._nbits and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:
        return hash((self._nbits, self._words.tobytes()))

    def __len__(self) -> int:
        return self._nbits

    def __repr__(self) -> str:
        if self._nbits <= 64:
            bits = "".join("1" if b else "0" for b in self.to_bools())
            return f"BitVector({bits!r})"
        return f"BitVector(nbits={self._nbits}, ones={self.count()})"
