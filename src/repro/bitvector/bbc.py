"""Byte-aligned Bitmap Code (BBC, Antoshenkov) — simplified codec.

The paper cites BBC as the main alternative to WAH: better compression
(byte-granular fills instead of WAH's 31-bit groups) but slower logical
operations.  We implement a faithful simplification with two token kinds,
distinguished by the control byte's MSB:

* **fill token** (MSB = 1): bit 6 is the fill bit; bits 0–5 give the run
  length in bytes (1..63); longer runs chain tokens.
* **literal token** (MSB = 0): bits 0–6 give the count ``m`` (1..127) of
  verbatim bytes that follow the control byte.

Logical operations on BBC decode to a verbatim :class:`BitVector`, operate,
and re-encode.  That is deliberately literal-at-query: the paper chose WAH
over BBC precisely because BBC's finer alignment makes compressed-domain
operations 2–20x slower, and this codec exists to reproduce the *size* side
of that trade-off (see the compression ablation benchmark).

The token stream is stored as a read-only ``uint8`` numpy array, and the
encode/decode passes are kernels in :mod:`repro.bitvector.kernels`, so the
codec benefits from the same pluggable backends as WAH (vectorized numpy by
default, byte-loop ``python`` reference; see ``docs/kernels.md``).
"""

from __future__ import annotations

import numpy as np

from repro.bitvector import kernels as _kernels
from repro.bitvector.bitvector import BitVector
from repro.errors import ReproError
from repro.observability import record as _obs_record

_FILL_FLAG = _kernels.BBC_FILL_FLAG
_FILL_BIT = _kernels.BBC_FILL_BIT
_MAX_FILL_RUN = _kernels.BBC_MAX_FILL_RUN  # 63 bytes per fill token
_MAX_LITERAL_RUN = _kernels.BBC_MAX_LITERAL_RUN  # 127 bytes per literal token


def _as_byte_array(data: "bytes | bytearray | np.ndarray") -> np.ndarray:
    """Normalize a token stream to a read-only uint8 array.

    ``bytes`` payloads (and read-only buffer views from storage loads) are
    aliased zero-copy; writable arrays are copied so instances stay
    immutable.
    """
    if isinstance(data, np.ndarray):
        arr = data.astype(np.uint8, copy=False)
        if arr is data and arr.flags.writeable:
            arr = arr.copy()
    else:
        arr = np.frombuffer(bytes(data), dtype=np.uint8)
    if arr.flags.writeable:
        arr.setflags(write=False)
    return arr


class BbcBitVector:
    """A BBC-compressed bitvector."""

    __slots__ = ("_data", "_nbits", "_hash")

    def __init__(self, nbits: int, data: "bytes | bytearray | np.ndarray"):
        if nbits < 0:
            raise ReproError(f"nbits must be >= 0, got {nbits}")
        self._nbits = nbits
        self._data = _as_byte_array(data)
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def compress(cls, vec: BitVector) -> "BbcBitVector":
        """Compress a verbatim bitvector."""
        raw = np.packbits(vec.to_bools(), bitorder="little")
        data, fill_tokens, literal_tokens = _kernels.get_backend().bbc_encode(raw)
        _obs_record("bbc.bytes_encoded", len(raw))
        _obs_record("bbc.fill_tokens", fill_tokens)
        _obs_record("bbc.literal_tokens", literal_tokens)
        return cls(vec.nbits, data)

    @classmethod
    def from_bools(cls, bools: np.ndarray) -> "BbcBitVector":
        """Compress a boolean array."""
        return cls.compress(BitVector.from_bools(bools))

    # -- accessors ---------------------------------------------------------

    @property
    def nbits(self) -> int:
        """Number of bits represented."""
        return self._nbits

    @property
    def data(self) -> np.ndarray:
        """The BBC token stream as a read-only uint8 array."""
        return self._data

    def words32(self) -> int:
        """Stored size in 32-bit word units (the paper's cost currency)."""
        return (len(self._data) + 3) // 4

    def nbytes(self) -> int:
        """Compressed payload size in bytes."""
        return len(self._data)

    def compression_ratio(self) -> float:
        """Compressed size over verbatim size; < 1 means compression helped."""
        verbatim = (self._nbits + 7) // 8
        if verbatim == 0:
            return 1.0
        return self.nbytes() / verbatim

    def decompress(self) -> BitVector:
        """Expand back to a verbatim :class:`BitVector`."""
        expected_bytes = (self._nbits + 7) // 8
        raw, tokens = _kernels.get_backend().bbc_decode(
            self._data, expected_bytes
        )
        _obs_record("bbc.tokens_decoded", tokens)
        _obs_record("bbc.bytes_decoded", len(raw))
        bits = np.unpackbits(raw, bitorder="little")
        return BitVector.from_bools(bits[: self._nbits].astype(bool))

    def count(self) -> int:
        """Number of 1-bits."""
        return self.decompress().count()

    def to_indices(self) -> np.ndarray:
        """Sorted positions of the 1-bits."""
        return self.decompress().to_indices()

    # -- logical operations (decode, operate, re-encode) --------------------

    def _binary_op(self, other: "BbcBitVector", name: str) -> "BbcBitVector":
        if not isinstance(other, BbcBitVector):
            raise TypeError(f"expected BbcBitVector, got {type(other).__name__}")
        _obs_record("bbc.ops")
        left = self.decompress()
        right = other.decompress()
        result = getattr(left, name)(right)
        return BbcBitVector.compress(result)

    def __and__(self, other: "BbcBitVector") -> "BbcBitVector":
        return self._binary_op(other, "__and__")

    def __or__(self, other: "BbcBitVector") -> "BbcBitVector":
        return self._binary_op(other, "__or__")

    def __xor__(self, other: "BbcBitVector") -> "BbcBitVector":
        return self._binary_op(other, "__xor__")

    def __invert__(self) -> "BbcBitVector":
        return BbcBitVector.compress(~self.decompress())

    def andnot(self, other: "BbcBitVector") -> "BbcBitVector":
        """``self & ~other``."""
        return self._binary_op(other, "andnot")

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BbcBitVector):
            return NotImplemented
        return self._nbits == other._nbits and bool(
            np.array_equal(self._data, other._data)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._nbits, self._data.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"BbcBitVector(nbits={self._nbits}, bytes={len(self._data)}, "
            f"ratio={self.compression_ratio():.3f})"
        )
