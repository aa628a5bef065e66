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

from repro.bitmap.base import AlgebraicBitmapIndex
from repro.query.model import BOTH, Interval, MissingSemantics


class RangeEncodedBitmapIndex(AlgebraicBitmapIndex):
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

    @staticmethod
    def _cumulative(ops, family, j: int):
        """``B_{i,j}`` with the dropped all-ones ``B_{i,C}`` synthesized."""
        if j >= family.cardinality:
            return ops.ones(family)
        return ops.read(family, j)

    def _bounds(self, ops, family, interval, semantics) -> tuple:
        """One query interval per Figure 3 of the paper, at any arity.

        Each scenario's raw expression already *is* one of the two bounds
        (``B_{v2}`` includes the all-ones missing rows, the complement and
        XOR forms exclude them), so the other bound is a single missing-
        bitmap adjustment on top of the shared cumulative reads.
        """
        v1, v2 = interval.lo, interval.hi
        if v1 == 1:
            # Includes the domain minimum: B_{v2} already holds values <= v2
            # and (because missing is the smallest value) the missing
            # records — the possible bound as stored.
            possible = self._cumulative(ops, family, v2)
            if semantics is MissingSemantics.IS_MATCH:
                return (possible,)
            missing = ops.missing(family, MissingSemantics.NOT_MATCH)
            certain = possible if missing is None else ops.xor(possible, missing)
            return (certain, possible) if semantics is BOTH else (certain,)
        if v2 == family.cardinality:
            # Includes the domain maximum: complement of B_{v1-1}.  Missing
            # records have a 1 in B_{v1-1}, so the NOT drops them.
            certain = ops.not_(self._cumulative(ops, family, v1 - 1))
        else:
            # Interior interval: consecutive-bitmap XOR, which cancels the
            # all-ones rows of missing records.
            low = self._cumulative(ops, family, v1 - 1)
            certain = ops.xor(self._cumulative(ops, family, v2), low)
        if semantics is MissingSemantics.NOT_MATCH:
            return (certain,)
        possible = ops.widen(family, certain)
        return (certain, possible) if semantics is BOTH else (possible,)

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
