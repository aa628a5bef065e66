"""Bitmap Range Encoding (BRE) with missing-data support (Section 4.3).

Range encoding stores cumulative bitmaps: ``B_{i,j}[x] = 1`` iff record
``x`` has a value **less than or equal to** ``j``.  The top bitmap
``B_{i,C}`` is all ones and is dropped.  Missing data is treated as the next
smallest value below the domain (the value 0), so a record with a missing
value carries a 1 in *every* stored bitmap, and ``B_{i,0}`` — one for exactly
the missing records — is added when the attribute has missing data.  With
missing values an attribute therefore stores ``C`` bitmaps (``B_0..B_{C-1}``)
and ``C - 1`` otherwise (``B_1..B_{C-1}``).

Interval evaluation follows Figure 3 of the paper.  The six printed cases
reduce to the three scenarios the text describes (the point-query rows are
the ``v1 == v2`` specializations of the range rows):

===============================  =============================  =========================
Scenario                         missing IS a match (Fig. 3a)   missing NOT a match (3b)
===============================  =============================  =========================
``v1 == 1`` (includes minimum)   ``B_{v2}``                     ``B_{v2} XOR B_0``
``v2 == C`` (includes maximum)   ``NOT B_{v1-1}  v  B_0``       ``NOT B_{v1-1}``
interior (``1 < v1, v2 < C``)    ``(B_{v2} XOR B_{v1-1}) v B_0``  ``B_{v2} XOR B_{v1-1}``
===============================  =============================  =========================

where ``B_C`` (needed when ``v1 == 1, v2 == C``) is synthesized as all ones.
Consequently a query uses 1–3 bitvectors per dimension under
missing-is-a-match and 1–2 under missing-is-not-a-match, matching the
paper's operation-count discussion.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.bitmap.base import (
    BitmapIndex,
    constant_vector,
    record_missing_consultation,
)
from repro.bitvector.ops import OpCounter
from repro.query.model import Interval, MissingSemantics


class RangeEncodedBitmapIndex(BitmapIndex):
    """Range-encoded (BRE) bitmap index over an incomplete table."""

    encoding = "range"

    def _encode_column(
        self, column: np.ndarray, cardinality: int, has_missing: bool
    ) -> Iterator[tuple[int, np.ndarray]]:
        # Missing is coded as 0, so ``column <= j`` marks missing records with
        # a 1 in every bitmap for free — the paper's "next smallest value".
        if has_missing:
            yield 0, column == 0
        for j in range(1, cardinality):
            yield j, column <= j

    def _cumulative(self, family, j: int, counter: OpCounter | None):
        """``B_{i,j}`` with the dropped all-ones ``B_{i,C}`` synthesized."""
        if j >= family.cardinality:
            return constant_vector(family, True)
        vec = family.bitmap(j)
        if counter is not None:
            counter.record_touch()
        return vec

    def _missing(self, family, semantics, counter: OpCounter | None):
        """``B_{i,0}``, or an all-zero constant when nothing is missing."""
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
        """Evaluate one query interval per Figure 3 of the paper."""
        self._check_interval(attribute, interval)
        family = self._family(attribute)
        cardinality = family.cardinality
        v1, v2 = interval.lo, interval.hi
        is_match = semantics is MissingSemantics.IS_MATCH

        if v1 == 1:
            # Includes the domain minimum: B_{v2} already holds values <= v2
            # and (because missing is the smallest value) the missing records.
            result = self._cumulative(family, v2, counter)
            if not is_match:
                missing = self._missing(family, semantics, counter)
                if missing is not None:
                    if counter is not None:
                        counter.record_binary(result, missing)
                    result = result ^ missing
        elif v2 == cardinality:
            # Includes the domain maximum: complement of B_{v1-1}.  Missing
            # records have a 1 in B_{v1-1}, so the NOT drops them — re-add
            # with B_0 only under missing-is-a-match.
            below = self._cumulative(family, v1 - 1, counter)
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
            # Interior interval: consecutive-bitmap XOR; the XOR cancels the
            # all-ones rows of missing records, so re-add under IS_MATCH.
            low = self._cumulative(family, v1 - 1, counter)
            high = self._cumulative(family, v2, counter)
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
        """Both bounds from one Figure 3 scenario evaluation.

        Each scenario's raw expression already *is* one of the two bounds
        (``B_{v2}`` includes the all-ones missing rows, the complement and
        XOR forms exclude them), so the other bound is a single missing-
        bitmap adjustment on top of the shared cumulative reads.
        """
        self._check_interval(attribute, interval)
        family = self._family(attribute)
        cardinality = family.cardinality
        v1, v2 = interval.lo, interval.hi

        if v1 == 1:
            # B_{v2} holds values <= v2 plus the missing rows: it is the
            # possible bound as stored.
            possible = self._cumulative(family, v2, counter)
            return (
                self._narrow_to_certain(family, possible, counter),
                possible,
            )
        if v2 == cardinality:
            below = self._cumulative(family, v1 - 1, counter)
            if counter is not None:
                counter.record_not(below)
            certain = ~below
        else:
            low = self._cumulative(family, v1 - 1, counter)
            high = self._cumulative(family, v2, counter)
            if counter is not None:
                counter.record_binary(high, low)
            certain = high ^ low
        return certain, self._widen_to_possible(family, certain, counter)

    def interval_cache_worthy(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
    ) -> bool:
        """Cache any evaluation that performs logical work.

        ``v2 == C`` complements its single cumulative read, so it is worth
        memoizing even at one bitvector; the ``v1 == 1`` single-read case
        (a stored bitmap returned as-is) is not, and everything else falls
        back to the read-count rule.
        """
        family = self._family(attribute)
        if interval.lo > 1 and interval.hi == family.cardinality:
            return True
        return self.bitmaps_for_interval(attribute, interval, semantics) >= 2

    def slots_for_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
    ) -> list[int]:
        """Stored slots :meth:`evaluate_interval` reads (``B_C`` is synthesized)."""
        family = self._family(attribute)
        cardinality = family.cardinality
        v1, v2 = interval.lo, interval.hi
        is_match = semantics is MissingSemantics.IS_MATCH
        if v1 == 1:
            slots = [v2] if v2 < cardinality else []
            adjusts = not is_match
        elif v2 == cardinality:
            slots = [v1 - 1]
            adjusts = is_match
        else:
            slots = [v1 - 1, v2]
            adjusts = is_match
        if adjusts and family.has_missing:
            slots.append(0)
        return slots
