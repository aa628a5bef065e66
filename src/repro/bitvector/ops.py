"""Generic helpers over any bitvector representation.

Every codec in this package (:class:`BitVector`, :class:`WahBitVector`,
:class:`BbcBitVector`) shares the operator protocol ``& | ^ ~``, ``count()``,
``to_indices()`` and ``nbytes()``.  The helpers here operate on that
protocol, so the bitmap indexes are agnostic to the chosen compression.

:class:`OpCounter` tallies logical operations and operand bitmaps touched;
the paper explains all of its Figure 5 timing trends through the *number of
bitvectors used* per query dimension, so the experiment harness records
these counts alongside wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence, TypeVar

import numpy as np

from repro.bitvector.bbc import BbcBitVector
from repro.bitvector.bitvector import BitVector
from repro.bitvector.wah import WahBitVector
from repro.errors import ReproError
from repro.observability import record as _obs_record


class BitVectorLike(Protocol):
    """Structural protocol implemented by all bitvector codecs."""

    @property
    def nbits(self) -> int: ...

    def __and__(self, other): ...
    def __or__(self, other): ...
    def __xor__(self, other): ...
    def __invert__(self): ...
    def count(self) -> int: ...
    def to_indices(self) -> np.ndarray: ...
    def nbytes(self) -> int: ...
    def words32(self) -> int: ...


V = TypeVar("V", bound=BitVectorLike)

#: Codec name -> constructor from a boolean array.
CODECS = {
    "none": BitVector.from_bools,
    "wah": WahBitVector.from_bools,
    "bbc": BbcBitVector.from_bools,
}


def make_bitvector(bools: np.ndarray, codec: str):
    """Build a bitvector of the requested codec from a boolean array."""
    try:
        factory = CODECS[codec]
    except KeyError:
        raise ReproError(
            f"unknown bitvector codec {codec!r}; expected one of {sorted(CODECS)}"
        )
    return factory(bools)


def make_zeros(nbits: int, codec: str):
    """An all-zero bitvector of the requested codec."""
    return make_bitvector(np.zeros(nbits, dtype=bool), codec)


def words_of(vec) -> int:
    """Number of 32-bit machine words an operand occupies.

    This is the unit of the paper's implicit cost model: WAH logical
    operations "only access words", so the work a query does is proportional
    to the stored words of its operands.  Each codec reports its own size
    through the ``words32()`` protocol method (verbatim bitvectors count
    their full word extent; WAH counts compressed words; BBC counts payload
    bytes scaled to words), so new codecs and backends participate in the
    cost model without registering here.
    """
    sizer = getattr(vec, "words32", None)
    if sizer is None:
        raise ReproError(f"cannot size operand of type {type(vec).__name__}")
    return sizer()


@dataclass
class OpCounter:
    """Tally of bitmap work done while answering queries.

    The paper explains its Figure 5 trends through the *number of bitvectors
    used* per query dimension, and its real-data result through bitmaps
    "performing bit operations over substantially fewer words" than the
    VA-file scans.  This counter tracks both quantities.

    Its ``record_*`` methods also report each tally to the metrics sinks
    as it happens (``bitmap.bitvectors_touched``, ``bitmap.binary_ops``,
    ``bitmap.not_ops``, ``bitmap.words_processed``), so the trace span
    open at that moment and the running query's tally both carry it;
    :meth:`record_tally` reports a whole step's totals at once.
    """

    #: Bitmap vectors read as operands (the paper's "bitvectors used").
    bitmaps_touched: int = 0
    #: Binary logical operations (AND/OR/XOR) performed.
    binary_ops: int = 0
    #: Complement (NOT) operations performed.
    not_ops: int = 0
    #: Cost-model items processed: 32-bit words for bitmap logical
    #: operations, record approximations for VA-file scans.  This is the
    #: paper's own cross-technique comparison currency (Section 5.3).
    words_processed: int = 0
    #: Per-query bitmap counts, appended by the executors.
    per_query: list[int] = field(default_factory=list)

    def record_touch(self, count: int = 1) -> None:
        """Account ``count`` stored bitmaps read as operands."""
        self.bitmaps_touched += count
        _obs_record("bitmap.bitvectors_touched", count)

    def record_binary(self, left, right) -> None:
        """Account one binary logical operation on two operands."""
        words = words_of(left) + words_of(right)
        self.binary_ops += 1
        self.words_processed += words
        _obs_record("bitmap.binary_ops")
        _obs_record("bitmap.words_processed", words)

    def record_not(self, operand) -> None:
        """Account one complement operation."""
        words = words_of(operand)
        self.not_ops += 1
        self.words_processed += words
        _obs_record("bitmap.not_ops")
        _obs_record("bitmap.words_processed", words)

    def record_tally(
        self, touched: int, binary_ops: int, not_ops: int, words: int
    ) -> None:
        """Account a whole step's tallies at once, one record per name.

        The same totals and names as the per-operation ``record_*`` calls
        that step would have made: ``words`` is recorded when any
        operation ran.
        """
        if touched:
            self.bitmaps_touched += touched
            _obs_record("bitmap.bitvectors_touched", touched)
        if binary_ops:
            self.binary_ops += binary_ops
            _obs_record("bitmap.binary_ops", binary_ops)
        if not_ops:
            self.not_ops += not_ops
            _obs_record("bitmap.not_ops", not_ops)
        if binary_ops or not_ops:
            self.words_processed += words
            _obs_record("bitmap.words_processed", words)

    def merge(self, other: "OpCounter") -> None:
        """Accumulate another counter into this one."""
        self.bitmaps_touched += other.bitmaps_touched
        self.binary_ops += other.binary_ops
        self.not_ops += other.not_ops
        self.words_processed += other.words_processed
        self.per_query.extend(other.per_query)

    def reset(self) -> None:
        """Zero all tallies."""
        self.bitmaps_touched = 0
        self.binary_ops = 0
        self.not_ops = 0
        self.words_processed = 0
        self.per_query.clear()


def big_or(operands: Sequence[V], counter: OpCounter | None = None) -> V:
    """OR together one or more bitvectors.

    Two or fewer WAH operands (and all non-WAH codecs) use pairwise ops.
    Wider WAH unions go through :meth:`WahBitVector.or_many`, which decodes
    each operand once into an accumulator so the accumulating result's
    density does not tax every subsequent operation; its cost-model charge
    is the operands' compressed words plus the encoded result.
    """
    if not operands:
        raise ReproError("big_or requires at least one operand")
    if len(operands) > 2 and all(
        isinstance(op, WahBitVector) for op in operands
    ):
        result = WahBitVector.or_many(list(operands))
        if counter is not None:
            words = sum(map(words_of, operands)) + words_of(result)
            counter.record_touch(len(operands))
            counter.binary_ops += len(operands) - 1
            counter.words_processed += words
            _obs_record("bitmap.binary_ops", len(operands) - 1)
            _obs_record("bitmap.words_processed", words)
        return result
    result = operands[0]
    for operand in operands[1:]:
        if counter is not None:
            counter.record_binary(result, operand)
        result = result | operand
    if counter is not None:
        counter.record_touch(len(operands))
    return result


def big_and(operands: Sequence[V], counter: OpCounter | None = None) -> V:
    """AND together one or more bitvectors (pairwise, left to right)."""
    if not operands:
        raise ReproError("big_and requires at least one operand")
    result = operands[0]
    for operand in operands[1:]:
        if counter is not None:
            counter.record_binary(result, operand)
        result = result & operand
    return result
