"""Bitvector engine: verbatim, WAH-compressed, and BBC-compressed bitmaps.

Word-level codec work (encode/decode/popcount) is the one coder in
:mod:`repro.bitvector.kernels` — see ``docs/kernels.md``.
"""

from repro.bitvector.bbc import BbcBitVector
from repro.bitvector.bitvector import BitVector
from repro.bitvector.ops import (
    CODECS,
    BitVectorLike,
    OpCounter,
    big_and,
    big_or,
    make_bitvector,
    make_zeros,
    words_of,
)
from repro.bitvector.wah import WahBitVector

__all__ = [
    "BbcBitVector",
    "BitVector",
    "BitVectorLike",
    "CODECS",
    "OpCounter",
    "WahBitVector",
    "big_and",
    "big_or",
    "make_bitvector",
    "make_zeros",
    "words_of",
]
