"""Bit-sliced bitmap encoding (BSL) with missing-data support.

The bitmap literature the paper builds on (O'Neil & Quass's variant
indexes, Chan & Ioannidis' encoding-scheme analysis) includes a fourth
classic encoding this library adds for completeness: store the *binary
digits* of each value as bitmaps — slice ``S_k`` holds bit ``k`` of every
record's value — so an attribute of cardinality ``C`` needs only
``ceil(lg(C + 1))`` bitmaps, the same budget as a VA-file approximation,
while still answering range queries with bit operations.

Missing-data handling follows the same trick as the paper's range encoding:
values ``1..C`` keep their natural binary patterns and **missing is the
all-zeros pattern** (the "next smallest value outside the domain").  The
bit-serial comparison below then treats missing records as smaller than
every real value, so the three evaluation scenarios (range touching the
minimum, touching the maximum, interior) and their per-semantics missing
adjustments are *identical* to Figure 3's:

=====================  =============================  =========================
Scenario               missing IS a match             missing NOT a match
=====================  =============================  =========================
``v1 == 1``            ``LE(v2)``                     ``LE(v2) XOR B_0``
``v2 == C``            ``NOT LE(v1-1)  v  B_0``       ``NOT LE(v1-1)``
interior               ``(LE(v2) XOR LE(v1-1)) v B_0``  ``LE(v2) XOR LE(v1-1)``
=====================  =============================  =========================

where ``LE(v)`` — the set of records with value (or missing) ``<= v`` — is
computed bit-serially over the slices (2 operations per slice), so a query
interval costs ``O(lg C)`` bitmap operations instead of BRE's ``O(1)``
operations over ``O(C)`` *stored* bitmaps.  The trade-off: far smaller
index, more operations per query.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.bitmap.base import (
    BitmapIndex,
    constant_vector,
    record_missing_consultation,
)
from repro.bitvector.ops import OpCounter
from repro.query.model import Interval, MissingSemantics


class BitSlicedIndex(BitmapIndex):
    """Bit-sliced (binary encoded) bitmap index over an incomplete table.

    Slice ``j >= 1`` is stored in slot ``j`` and holds bit ``j - 1`` of each
    record's value (missing = value 0); slot 0 is the usual missing bitmap.
    """

    encoding = "bitsliced"

    @staticmethod
    def num_slices(cardinality: int) -> int:
        """Slices needed to represent values ``0..C``: ``ceil(lg(C + 1))``."""
        return max(1, math.ceil(math.log2(cardinality + 1)))

    def _encode_column(
        self, column: np.ndarray, cardinality: int, has_missing: bool
    ) -> Iterator[tuple[int, np.ndarray]]:
        if has_missing:
            yield 0, column == 0
        for k in range(self.num_slices(cardinality)):
            yield k + 1, (column >> k) & 1 == 1

    def _slice(self, family, k: int, counter: OpCounter | None):
        """Slice ``S_k`` (bit ``k``), counting the access."""
        vec = family.bitmap(k + 1)
        if counter is not None:
            counter.record_touch()
        return vec

    def _less_equal(self, family, value: int, counter: OpCounter | None):
        """Records whose value (with missing = 0) is ``<= value``.

        Classic bit-serial comparison, most significant slice first: track
        the records still *equal* to the prefix of ``value`` and those
        already *less*; a record is ``<= value`` if it ends in either set.
        """
        nslices = self.num_slices(family.cardinality)
        less = None
        equal = constant_vector(family, True)
        for k in range(nslices - 1, -1, -1):
            slice_k = self._slice(family, k, counter)
            if (value >> k) & 1:
                newly_less = equal.andnot(slice_k)
                less = newly_less if less is None else (less | newly_less)
                if counter is not None:
                    counter.record_binary(equal, slice_k)
                equal = equal & slice_k
            else:
                if counter is not None:
                    counter.record_binary(equal, slice_k)
                equal = equal.andnot(slice_k)
        result = equal if less is None else (less | equal)
        if counter is not None and less is not None:
            counter.record_binary(less, equal)
        return result

    def _missing(self, family, semantics, counter: OpCounter | None):
        if family.has_missing:
            record_missing_consultation(semantics)
            if counter is not None:
                counter.record_touch()
            return family.bitmap(0)
        return None

    def evaluate_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
        counter: OpCounter | None = None,
    ):
        """Evaluate one query interval via bit-serial ``LE`` comparisons."""
        self._check_interval(attribute, interval)
        family = self._family(attribute)
        cardinality = family.cardinality
        v1, v2 = interval.lo, interval.hi
        is_match = semantics is MissingSemantics.IS_MATCH

        if v1 == 1:
            result = self._less_equal(family, v2, counter)
            if not is_match:
                missing = self._missing(family, semantics, counter)
                if missing is not None:
                    if counter is not None:
                        counter.record_binary(result, missing)
                    result = result ^ missing
        elif v2 == cardinality:
            below = self._less_equal(family, v1 - 1, counter)
            if counter is not None:
                counter.record_not(below)
            result = ~below
            if is_match:
                missing = self._missing(family, semantics, counter)
                if missing is not None:
                    if counter is not None:
                        counter.record_binary(result, missing)
                    result = result | missing
        else:
            low = self._less_equal(family, v1 - 1, counter)
            high = self._less_equal(family, v2, counter)
            if counter is not None:
                counter.record_binary(high, low)
            result = high ^ low
            if is_match:
                missing = self._missing(family, semantics, counter)
                if missing is not None:
                    if counter is not None:
                        counter.record_binary(result, missing)
                    result = result | missing
        return result

    def evaluate_interval_both(
        self,
        attribute: str,
        interval: Interval,
        counter: OpCounter | None = None,
    ):
        """Both bounds sharing the bit-serial ``LE`` comparisons.

        The ``O(lg C)`` slice arithmetic — the expensive part of this
        encoding — runs once per scenario; the second bound is a single
        missing-bitmap adjustment, mirroring the BRE derivation.
        """
        self._check_interval(attribute, interval)
        family = self._family(attribute)
        cardinality = family.cardinality
        v1, v2 = interval.lo, interval.hi

        if v1 == 1:
            # LE(v2) treats missing as the smallest value, so it already
            # contains the missing rows: the possible bound as computed.
            possible = self._less_equal(family, v2, counter)
            return (
                self._narrow_to_certain(family, possible, counter),
                possible,
            )
        if v2 == cardinality:
            below = self._less_equal(family, v1 - 1, counter)
            if counter is not None:
                counter.record_not(below)
            certain = ~below
        else:
            low = self._less_equal(family, v1 - 1, counter)
            high = self._less_equal(family, v2, counter)
            if counter is not None:
                counter.record_binary(high, low)
            certain = high ^ low
        return certain, self._widen_to_possible(family, certain, counter)

    def bitmaps_for_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
    ) -> int:
        """Number of stored bitvector reads for one interval.

        Each ``LE`` comparison reads every slice; the scenario fixes how
        many comparisons run (one for ``v1 == 1`` or ``v2 == C``, two
        interior) and whether the missing bitmap adjusts the result (the
        table in the module docstring).
        """
        self._check_interval(attribute, interval)
        family = self._family(attribute)
        v1, v2 = interval.lo, interval.hi
        is_match = semantics is MissingSemantics.IS_MATCH
        interior = v1 > 1 and v2 < family.cardinality
        comparisons = 2 if interior else 1
        # LE(v2) already holds the missing rows (missing is value 0); the
        # complement and XOR forms drop them.
        adjusts = family.has_missing and (is_match == (v1 > 1))
        return comparisons * self.num_slices(family.cardinality) + adjusts
