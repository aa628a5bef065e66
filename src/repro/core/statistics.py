"""Table statistics and selectivity estimation.

Section 5.3 derives query workloads from the relation

    GS = prod_i ((1 - Pm_i) * AS_i + Pm_i)

under a uniform-value assumption.  This module turns that formula into an
*estimator* over real data: per-attribute value histograms supply the exact
single-attribute probabilities (``P[value in interval]``, ``P[missing]``)
and the product supplies the multi-attribute estimate under the same
attribute-independence assumption the paper's formula makes.

Histograms are exact (one bucket per domain value — cheap since the paper's
domains are small-cardinality codes), so single-attribute estimates are
exact and multi-attribute error comes only from attribute correlation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.dataset.table import IncompleteTable
from repro.errors import DomainError, QueryError
from repro.query.model import Interval, MissingSemantics, RangeQuery


@dataclass(frozen=True)
class AttributeStatistics:
    """Exact value histogram for one attribute."""

    name: str
    cardinality: int
    #: counts[v] = number of records with code v (index 0 = missing).
    counts: np.ndarray
    num_records: int

    @classmethod
    def from_column(
        cls, name: str, column: np.ndarray, cardinality: int
    ) -> "AttributeStatistics":
        """Build from a coded column (0 = missing)."""
        counts = np.bincount(column, minlength=cardinality + 1)
        return cls(
            name=name,
            cardinality=cardinality,
            counts=counts,
            num_records=len(column),
        )

    @property
    def missing_probability(self) -> float:
        """Fraction of records whose value is missing."""
        if self.num_records == 0:
            return 0.0
        return float(self.counts[0]) / self.num_records

    def interval_probability(self, interval: Interval) -> float:
        """``P[lo <= value <= hi]`` over all records (missing excluded)."""
        if interval.hi > self.cardinality:
            raise DomainError(
                f"interval {interval} exceeds domain 1..{self.cardinality} "
                f"of attribute {self.name!r}"
            )
        if self.num_records == 0:
            return 0.0
        in_range = int(self.counts[interval.lo : interval.hi + 1].sum())
        return in_range / self.num_records

    def match_probability(
        self, interval: Interval, semantics: MissingSemantics
    ) -> float:
        """``P[record satisfies interval]`` under the chosen semantics."""
        probability = self.interval_probability(interval)
        if semantics is MissingSemantics.IS_MATCH:
            probability += self.missing_probability
        return probability

    def present_interval_probability(self, interval: Interval) -> float:
        """``P[lo <= value <= hi | value present]``.

        The conditional the probabilistic ranking mode needs: for a row
        whose value on this attribute is *missing*, the histogram of the
        attribute's present values is the natural missing-value
        distribution, and this is the chance an imputed value would land
        inside the interval.  Falls back to the unconditional uniform
        chance ``width / C`` when every record is missing (no observed
        distribution to condition on).
        """
        if interval.hi > self.cardinality:
            raise DomainError(
                f"interval {interval} exceeds domain 1..{self.cardinality} "
                f"of attribute {self.name!r}"
            )
        present = int(self.counts[1:].sum())
        if present == 0:
            return interval.width / self.cardinality
        in_range = int(self.counts[interval.lo : interval.hi + 1].sum())
        return in_range / present

    def most_frequent_value(self) -> int | None:
        """The most common present value, or None if all records are missing."""
        if len(self.counts) <= 1 or self.counts[1:].sum() == 0:
            return None
        return int(np.argmax(self.counts[1:])) + 1


class TableStatistics:
    """Per-attribute histograms plus the paper's product-form estimator."""

    def __init__(self, table: IncompleteTable):
        self._num_records = table.num_records
        self._attrs = {
            spec.name: AttributeStatistics.from_column(
                spec.name, table.column(spec.name), spec.cardinality
            )
            for spec in table.schema
        }

    @classmethod
    def summed(cls, parts: "list[TableStatistics]") -> "TableStatistics":
        """The statistics of the concatenated tables ``parts`` describe.

        Histograms are exact counts, so summing them loses nothing.
        """
        self = cls.__new__(cls)
        self._num_records = sum(part._num_records for part in parts)
        self._attrs = {
            name: replace(
                attr,
                counts=sum(part._attrs[name].counts for part in parts),
                num_records=self._num_records,
            )
            for name, attr in parts[0]._attrs.items()
        }
        return self

    @property
    def num_records(self) -> int:
        """Number of records the statistics describe."""
        return self._num_records

    def attribute(self, name: str) -> AttributeStatistics:
        """Statistics for one attribute."""
        try:
            return self._attrs[name]
        except KeyError:
            raise QueryError(f"no statistics for attribute {name!r}")

    def estimate_selectivity(
        self,
        query: RangeQuery,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
    ) -> float:
        """Estimated global selectivity: the paper's GS product.

        Exact for single-attribute queries; multi-attribute estimates
        assume attribute independence (as the paper's formula does).
        """
        selectivity = 1.0
        for name, interval in query.items():
            selectivity *= self.attribute(name).match_probability(
                interval, semantics
            )
        return selectivity

    def estimate_count(
        self,
        query: RangeQuery,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
    ) -> int:
        """Estimated number of matching records."""
        return round(self.estimate_selectivity(query, semantics) * self._num_records)
