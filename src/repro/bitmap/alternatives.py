"""The paper's rejected alternative missing-data encodings (ablations).

Section 4.2 discusses — and rejects — encoding missing data *inside* the
value bitmaps of an equality-encoded index instead of adding ``B_{i,0}``:
set every value bit to 1 for a missing record when the workload treats
missing as a match, or to 0 when it does not.  Section 4.3 similarly rejects
a "missing flag" variant of range encoding where ``B_{i,0}`` flags missing
records but they carry 0 in the cumulative bitmaps, which forces ``B_{i,C}``
to be kept.

Both are implemented here so the benchmarks can reproduce the paper's
arguments quantitatively:

* :class:`InlineMissingEqualityIndex` — commits to one semantics at build
  time, breaks the complement (NOT) evaluation path, cannot distinguish a
  missing value from a real value at cardinality 1, and (in match mode)
  destroys the 0-runs WAH compression feeds on.
* :class:`FlaggedRangeEncodedIndex` — stores ``C + 1`` bitmaps instead of
  ``C`` and gains nothing in query evaluation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.bitmap.base import BitmapIndex, constant_vector
from repro.bitvector.ops import OpCounter, big_or
from repro.errors import IndexBuildError, QueryError
from repro.query.model import Interval, MissingSemantics


class InlineMissingEqualityIndex(BitmapIndex):
    """Equality encoding with missing data folded into the value bitmaps.

    Parameters
    ----------
    table, attributes, codec:
        As for :class:`~repro.bitmap.base.BitmapIndex`.
    built_for:
        The single query semantics this encoding supports.  ``IS_MATCH``
        writes all-ones rows for missing records; ``NOT_MATCH`` writes
        all-zero rows.
    """

    encoding = "equality-inline-missing"

    def __init__(self, table, attributes=None, codec="wah",
                 built_for: MissingSemantics = MissingSemantics.IS_MATCH):
        for name in (attributes if attributes is not None else table.schema.names):
            if table.schema.cardinality(name) == 1 and table.missing_fraction(name) > 0:
                raise IndexBuildError(
                    f"inline-missing encoding cannot distinguish missing from "
                    f"present at cardinality 1 (attribute {name!r}) — this is "
                    f"the degenerate case the paper calls out"
                )
        self._built_for = built_for
        super().__init__(table, attributes, codec)

    @property
    def built_for(self) -> MissingSemantics:
        """The only semantics this index can answer."""
        return self._built_for

    def _encode_column(
        self, column: np.ndarray, cardinality: int, has_missing: bool
    ) -> Iterator[tuple[int, np.ndarray]]:
        missing_rows = column == 0
        for j in range(1, cardinality + 1):
            bools = column == j
            if self._built_for is MissingSemantics.IS_MATCH:
                bools = bools | missing_rows
            yield j, bools

    def evaluate_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
        counter: OpCounter | None = None,
    ):
        """Direct OR evaluation only; rejects the unsupported semantics.

        The complement optimisation is unavailable: negating a bitmap under
        this encoding corrupts the missing rows (the paper's NOT-operator
        argument), so wide intervals pay the full ``width`` ORs.
        """
        if semantics is not self._built_for:
            raise QueryError(
                f"index was built for {self._built_for.value!r} semantics and "
                f"cannot answer {semantics.value!r} queries — the flexibility "
                f"the B_0 bitmap buys in the paper's chosen encoding"
            )
        self._check_interval(attribute, interval)
        family = self._family(attribute)
        operands = [family.bitmap(j) for j in range(interval.lo, interval.hi + 1)]
        return big_or(operands, counter)


class FlaggedRangeEncodedIndex(BitmapIndex):
    """Range encoding with a missing *flag* bitmap instead of missing-as-0.

    ``B_{i,0}[x] = 1`` flags a missing record; missing records carry 0 in all
    cumulative bitmaps, so ``B_{i,C}`` is no longer all ones and must be
    stored: ``C + 1`` bitmaps per attribute with missing data.
    """

    encoding = "range-flagged-missing"

    def _encode_column(
        self, column: np.ndarray, cardinality: int, has_missing: bool
    ) -> Iterator[tuple[int, np.ndarray]]:
        present = column != 0
        if has_missing:
            yield 0, ~present
        # Missing records get 0 everywhere, so B_C is not all ones and the
        # usual drop-the-top-bitmap trick is unavailable when data is missing.
        top = cardinality + 1 if has_missing else cardinality
        for j in range(1, top):
            yield j, present & (column <= j)

    def _cumulative(self, family, j: int, counter: OpCounter | None):
        if not family.has_missing and j >= family.cardinality:
            return constant_vector(family, True)
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
        """Cumulative-XOR evaluation adapted to the flag encoding."""
        self._check_interval(attribute, interval)
        family = self._family(attribute)
        v1, v2 = interval.lo, interval.hi

        if v1 == 1:
            result = self._cumulative(family, v2, counter)
        else:
            low = self._cumulative(family, v1 - 1, counter)
            high = self._cumulative(family, v2, counter)
            if counter is not None:
                counter.record_binary(high, low)
            result = high ^ low
        if semantics is MissingSemantics.IS_MATCH and family.has_missing:
            missing = family.bitmap(0)
            if counter is not None:
                counter.record_touch()
                counter.record_binary(result, missing)
            result = result | missing
        return result
