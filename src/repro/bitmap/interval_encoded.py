"""Bitmap Interval Encoding (BIE) with missing-data support.

The paper's related-work section cites Chan & Ioannidis' *interval*
encoding [5] alongside equality and range encoding.  Interval encoding
stores ``floor(C/2) + 1`` bitmaps, each covering a sliding window of
``m = ceil(C/2)`` consecutive values::

    I_j[x] = 1  iff  j <= value(x) <= j + m - 1,    1 <= j <= C - m + 1

and answers *any* interval query by combining at most two stored bitmaps
(union, intersection, or difference of two windows), giving it range-
encoding-like query cost at roughly half the storage.

Missing-data handling follows the same recipe as the paper's equality
encoding: missing values are a distinct slot with their own bitmap
``B_{i,0}``; a missing record carries 0 in every window bitmap.  Window
combinations therefore exclude missing records naturally, and the
complement-based case picks them up automatically — each evaluation path
below documents which way it goes.

Evaluation cases for ``[l, u]`` over cardinality ``C`` (``m = ceil(C/2)``):

=====================================  =========================================
Condition                              Expression (before missing adjustment)
=====================================  =========================================
``l == 1 and u == C``                  all ones
``l == 1 and u < m``                   ``I_1 & ~I_{u+1}``
``l == 1 and u >= m``                  ``I_1 | I_{u-m+1}``
``u == C``                             ``~[1, l-1]`` (recurse, then complement)
``u < m`` (interior, low)              ``I_l & ~I_{u+1}``
``l > C-m+1`` (interior, high)         ``I_{u-m+1} & ~I_{l-m}``
``u - l + 1 <= m`` (interior, mid)     ``I_l & I_{u-m+1}``
``u - l + 1 > m`` (interior, wide)     ``I_l | I_{u-m+1}``
=====================================  =========================================
"""

from __future__ import annotations

import math
import operator
from typing import Iterator

import numpy as np

from repro.bitmap.base import (
    BitmapIndex,
    Operators,
    constant_vector,
    record_missing_consultation,
)
from repro.bitvector.ops import OpCounter
from repro.query.model import Interval, MissingSemantics


def _andnot(left, right):
    return left.andnot(right)


class IntervalEncodedBitmapIndex(BitmapIndex):
    """Interval-encoded (BIE) bitmap index over an incomplete table."""

    encoding = "interval"

    @staticmethod
    def window_length(cardinality: int) -> int:
        """The window width ``m = ceil(C/2)``."""
        return math.ceil(cardinality / 2)

    def _encode_column(
        self, column: np.ndarray, cardinality: int, has_missing: bool
    ) -> Iterator[tuple[int, np.ndarray]]:
        if has_missing:
            yield 0, column == 0
        m = self.window_length(cardinality)
        for j in range(1, cardinality - m + 2):
            yield j, (column >= j) & (column <= j + m - 1)

    def _window(self, family, j: int, counter: OpCounter | None):
        vec = family.bitmap(j)
        if counter is not None:
            counter.record_touch()
        return vec

    def evaluate_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
        counter: OpCounter | None = None,
    ):
        """Evaluate one query interval using at most two window bitmaps."""
        self._check_interval(attribute, interval)
        family = self._family(attribute)
        result, includes_missing = self._evaluate_windows(
            family, interval.lo, interval.hi, counter
        )
        wants_missing = (
            semantics is MissingSemantics.IS_MATCH and family.has_missing
        )
        if wants_missing and not includes_missing:
            record_missing_consultation(semantics)
            missing = family.bitmap(0)
            if counter is not None:
                counter.record_touch()
                counter.record_binary(result, missing)
            result = result | missing
        elif includes_missing and not wants_missing and family.has_missing:
            record_missing_consultation(semantics)
            missing = family.bitmap(0)
            if counter is not None:
                counter.record_touch()
                counter.record_binary(result, missing)
            result = result.andnot(missing)
        return result

    def evaluate_interval_both(
        self,
        attribute: str,
        interval: Interval,
        counter: OpCounter | None = None,
    ):
        """Both bounds from one window combination.

        ``_evaluate_windows`` runs once; ``includes_missing`` tells which
        bound the raw vector already is, and the other is one missing-
        bitmap adjustment away.
        """
        self._check_interval(attribute, interval)
        family = self._family(attribute)
        result, includes_missing = self._evaluate_windows(
            family, interval.lo, interval.hi, counter
        )
        if not family.has_missing:
            return result, result
        if includes_missing:
            return Operators(counter).narrow(family, result), result
        return result, Operators(counter).widen(family, result)

    def _window_plan(self, cardinality: int, lo: int, hi: int):
        """How ``[lo, hi]`` combines two stored windows.

        ``(combine, left, right, complemented)``: the windows starting at
        ``left`` and ``right`` combined by ``combine``, then negated when
        ``complemented``; None for the full domain.
        """
        if lo == 1 and hi == cardinality:
            return None
        if hi == cardinality:
            # Complement of [1, lo-1]; missing records flip to 1.
            combine, left, right, _ = self._window_plan(cardinality, 1, lo - 1)
            return combine, left, right, True
        m = self.window_length(cardinality)
        top = cardinality - m + 1  # highest stored window start
        if lo == 1:
            if hi < m:
                return _andnot, 1, hi + 1, False
            return operator.or_, 1, hi - m + 1, False
        if hi < m:
            return _andnot, lo, hi + 1, False
        if lo > top:
            return _andnot, hi - m + 1, lo - m, False
        if hi - lo + 1 <= m:
            return operator.and_, lo, hi - m + 1, False
        return operator.or_, lo, hi - m + 1, False

    def _evaluate_windows(self, family, lo: int, hi: int,
                          counter: OpCounter | None):
        """The raw window combination; returns ``(vector, includes_missing)``.

        ``includes_missing`` reports whether missing records carry a 1 in
        the returned vector (only the full domain and the complement path
        do that).
        """
        plan = self._window_plan(family.cardinality, lo, hi)
        if plan is None:
            return constant_vector(family, True), True
        combine, j_left, j_right, complemented = plan
        left = self._window(family, j_left, counter)
        right = self._window(family, j_right, counter)
        if counter is not None:
            counter.record_binary(left, right)
        result = combine(left, right)
        if complemented:
            if counter is not None:
                counter.record_not(result)
            return ~result, True
        return result, False

    def slots_for_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
    ) -> list[int]:
        """Stored slots :meth:`evaluate_interval` reads: the plan's two
        windows, plus ``B_{i,0}`` when the missing rows need adjusting."""
        family = self._family(attribute)
        plan = self._window_plan(family.cardinality, interval.lo, interval.hi)
        slots = [] if plan is None else [plan[1], plan[2]]
        includes_missing = interval.hi == family.cardinality
        wants_missing = semantics is MissingSemantics.IS_MATCH
        if family.has_missing and includes_missing != wants_missing:
            slots.append(0)
        return slots

    def bitmaps_for_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
    ) -> int:
        """Number of stored bitvectors :meth:`evaluate_interval` will read.

        From the window rule: every interval but the full domain combines
        two windows, and the missing bitmap is read once more exactly when
        the combination's treatment of missing rows (the full domain and
        the complement path ``u == C`` include them) differs from what the
        semantics wants.
        """
        self._check_interval(attribute, interval)
        family = self._family(attribute)
        full = interval.lo == 1 and interval.hi == family.cardinality
        includes_missing = interval.hi == family.cardinality
        wants_missing = semantics is MissingSemantics.IS_MATCH
        adjusts = family.has_missing and includes_missing != wants_missing
        return (0 if full else 2) + adjusts
