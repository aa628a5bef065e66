"""Bitmap Equality Encoding (BEE) with missing-data support (Section 4.2).

Equality encoding stores one bitmap per attribute value: ``B_{i,j}[x] = 1``
iff record ``x`` has value ``j`` for attribute ``A_i``.  Missing data is
mapped to the distinct slot ``0``, adding the bitmap ``B_{i,0}`` for
attributes that contain missing values.

Interval evaluation follows Figure 2 of the paper.  Writing ``width`` for
``v2 - v1`` and ``C`` for the cardinality:

* *missing is a match* (Fig. 2a)::

      (OR_{j=v1..v2} B_j) v B_0                 if width <= floor(C/2)
      NOT( OR_{j<v1} B_j  v  OR_{j>v2} B_j )    otherwise

  The complement branch is correct for missing-is-a-match without touching
  ``B_0``: a record with a missing value has 0 in every *value* bitmap, so
  the complement of their union carries a 1 for it.

* *missing is not a match* (Fig. 2b)::

      OR_{j=v1..v2} B_j                                  if width <= floor(C/2)
      NOT( OR_{j<v1} B_j  v  OR_{j>v2} B_j  v  B_0 )     otherwise

The worst-case number of bitvectors used for one interval is
``min(AS, 1 - AS) * C + 1`` where ``AS`` is the attribute selectivity —
the quantity the paper uses to explain BEE's timing curves.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.bitmap.base import AlgebraicBitmapIndex
from repro.query.model import BOTH, Interval, MissingSemantics


class EqualityEncodedBitmapIndex(AlgebraicBitmapIndex):
    """Equality-encoded (BEE) bitmap index over an incomplete table."""

    encoding = "equality"

    def _encode_column(
        self, column: np.ndarray, cardinality: int, has_missing: bool
    ) -> Iterator[tuple[int, np.ndarray]]:
        if has_missing:
            yield 0, column == 0
        for j in range(1, cardinality + 1):
            yield j, column == j

    def _bounds(self, ops, family, interval, semantics) -> tuple:
        """One query interval per Figure 2 of the paper, at any arity.

        The direct branch's value union is the certain bound (missing rows
        sit in no value bitmap); the complement branch's plain complement
        is the possible bound (missing rows carry 0 in every value bitmap,
        so the NOT sets them).  A single semantics that wants the other
        bound folds ``B_0`` into the union, as Figure 2 prints it; ``BOTH``
        runs the union once and derives the other bound with one missing-
        bitmap adjustment.
        """
        v1, v2 = interval.lo, interval.hi
        if (v2 - v1) <= family.cardinality // 2:
            slots = list(range(v1, v2 + 1))
            if semantics is MissingSemantics.IS_MATCH:
                if family.has_missing:
                    ops.consult(semantics)
                    slots.append(0)
                return (ops.union(family, slots),)
            certain = ops.union(family, slots)
            if semantics is BOTH:
                return certain, ops.widen(family, certain)
            return (certain,)
        slots = self._outside_slots(family, v1, v2)
        if semantics is MissingSemantics.NOT_MATCH and family.has_missing:
            ops.consult(semantics)
            slots.append(0)
        # An empty list is the full domain with nothing to exclude.
        complement = ops.not_(ops.union(family, slots)) if slots else ops.ones(family)
        if semantics is BOTH:
            return ops.narrow(family, complement), complement
        return (complement,)

    @staticmethod
    def _outside_slots(family, v1: int, v2: int) -> list[int]:
        return [*range(1, v1), *range(v2 + 1, family.cardinality + 1)]

    def slots_for_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
    ) -> list[int]:
        """Stored slots :meth:`evaluate_interval` reads: the interval's own
        values, or the values outside it, plus ``B_{i,0}`` when applicable
        — the paper's cost model ``min(AS, 1-AS) * C + 1`` bitmaps."""
        family = self._family(attribute)
        v1, v2 = interval.lo, interval.hi
        if (v2 - v1) <= family.cardinality // 2:
            slots = list(range(v1, v2 + 1))
            adjusts = semantics is MissingSemantics.IS_MATCH
        else:
            slots = self._outside_slots(family, v1, v2)
            adjusts = semantics is MissingSemantics.NOT_MATCH
        if adjusts and family.has_missing:
            slots.append(0)
        return slots


def paper_example_column() -> np.ndarray:
    """The 10-record cardinality-5 example column of Tables 1–4.

    Values (1-indexed records): 5, 2, 3, missing, 4, 5, 1, 3, missing, 2.
    """
    return np.array([5, 2, 3, 0, 4, 5, 1, 3, 0, 2], dtype=np.int64)
