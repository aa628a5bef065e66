"""Query model: intervals, range queries, and missing-data semantics.

The paper (Section 3) defines retrieval over a ``k``-dimensional search key
where each attribute in the key carries an interval ``v1 <= A_i <= v2`` with
``1 <= v1 <= v2 <= C_i``.  A *point query* is a range query whose bounds
coincide on every attribute.

Two query semantics are defined for incomplete data:

* :attr:`MissingSemantics.IS_MATCH` — a tuple matches when every search-key
  attribute is either missing or falls inside its interval.
* :attr:`MissingSemantics.NOT_MATCH` — a tuple matches only when every
  search-key attribute is present *and* falls inside its interval.

The two semantics are the poles of the three-valued (certain, possible)
answer model — ``NOT_MATCH`` computes the *certain* answers, ``IS_MATCH``
the *possible* answers — and :data:`BOTH` requests both bounds in one
pass (see ``docs/semantics.md``).  This module is the one place that knows
how many bounds a request asks for: every resolved semantics exposes
``bounds`` (the tuple of single semantics it evaluates to, narrowest first)
and ``opposite`` (the semantics a ``Not`` evaluates its child under), and
every execution tier is written once against those two properties.
:func:`resolve_semantics` normalizes
user-facing spellings (enum members or the strings ``"is_match"``,
``"not_match"``, ``"both"``) into either a :class:`MissingSemantics`
member or the :data:`BOTH` sentinel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import DomainError, QueryError


class MissingSemantics(enum.Enum):
    """How missing attribute values interact with a query interval."""

    #: A missing value counts as satisfying any interval on that attribute.
    IS_MATCH = "is_match"
    #: A missing value disqualifies the record for that attribute.
    NOT_MATCH = "not_match"

    @property
    def bounds(self) -> "tuple[MissingSemantics, ...]":
        """The bounds this semantics asks for: itself, at arity 1."""
        return (self,)

    @property
    def opposite(self) -> "MissingSemantics":
        """The other bound of the (certain, possible) pair.

        Negation crosses bounds — ``certain(¬p) = ¬possible(p)`` and
        ``possible(¬p) = ¬certain(p)`` — so evaluating ``Not`` under one
        semantics requires the child under the opposite one.
        """
        if self is MissingSemantics.IS_MATCH:
            return MissingSemantics.NOT_MATCH
        return MissingSemantics.IS_MATCH


class ThreeValued(enum.Enum):
    """Sentinel type requesting both bounds of the three-valued answer.

    A single-member enum (rather than a bare ``object()``) so the sentinel
    survives pickling and copying: enum members unpickle to the *same*
    object, keeping ``is BOTH`` checks valid on a report or request that
    has been through either.
    """

    BOTH = "both"

    @property
    def bounds(self) -> "tuple[MissingSemantics, ...]":
        """``(certain, possible)``: narrowest bound first, widest last."""
        return (MissingSemantics.NOT_MATCH, MissingSemantics.IS_MATCH)

    @property
    def opposite(self) -> "ThreeValued":
        """``BOTH`` is its own opposite: negation swaps the pair in place."""
        return self


#: Request a one-pass ``(certain, possible)`` evaluation.
BOTH = ThreeValued.BOTH


def resolve_semantics(
    value: "MissingSemantics | ThreeValued | str | None",
) -> "MissingSemantics | ThreeValued":
    """Normalize a user-facing semantics spelling.

    Accepts enum members, their string values (``"is_match"``,
    ``"not_match"``, ``"both"``), and ``None`` (the legacy default,
    ``IS_MATCH``).  Raises :class:`~repro.errors.QueryError` on anything
    else so serving layers can map it to a 400.
    """
    if value is None:
        return MissingSemantics.IS_MATCH
    if isinstance(value, (MissingSemantics, ThreeValued)):
        return value
    if isinstance(value, str):
        if value == ThreeValued.BOTH.value:
            return BOTH
        try:
            return MissingSemantics(value)
        except ValueError:
            pass
    raise QueryError(
        f"unknown semantics {value!r}; expected one of "
        f"'is_match', 'not_match', 'both'"
    )


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval ``lo <= A <= hi`` over an attribute's domain.

    Bounds are inclusive and 1-based, matching the paper's convention that
    attribute domains are the integers ``1..C``.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1:
            raise DomainError(f"interval lower bound must be >= 1, got {self.lo}")
        if self.hi < self.lo:
            raise DomainError(
                f"interval upper bound {self.hi} is below lower bound {self.lo}"
            )

    @property
    def is_point(self) -> bool:
        """Whether this interval selects a single value."""
        return self.lo == self.hi

    @property
    def width(self) -> int:
        """Number of domain values covered by the interval."""
        return self.hi - self.lo + 1

    def contains(self, value: int) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lo <= value <= self.hi

    def selectivity(self, cardinality: int) -> float:
        """Attribute selectivity ``AS = (v2 - v1 + 1) / C`` from the paper."""
        if cardinality < self.hi:
            raise DomainError(
                f"interval {self} exceeds attribute cardinality {cardinality}"
            )
        return self.width / cardinality

    def __str__(self) -> str:
        if self.is_point:
            return f"= {self.lo}"
        return f"in [{self.lo}, {self.hi}]"


class RangeQuery:
    """A conjunctive multi-attribute range query.

    Maps attribute names to :class:`Interval` constraints.  All constraints
    are ANDed: a record answers the query when every constrained attribute
    satisfies its interval under the chosen :class:`MissingSemantics`.

    Parameters
    ----------
    intervals:
        Mapping from attribute name to the interval constraining it.  Must be
        non-empty.
    """

    __slots__ = ("_intervals", "_hash")

    def __init__(self, intervals: Mapping[str, Interval]):
        if not intervals:
            raise QueryError("a range query requires at least one interval")
        self._intervals: dict[str, Interval] = dict(intervals)
        # Hashed once: every execution looks its plan up by the query.
        self._hash = hash(tuple(sorted(self._intervals.items())))

    @classmethod
    def from_bounds(cls, bounds: Mapping[str, tuple[int, int]]) -> "RangeQuery":
        """Build a query from ``{attribute: (lo, hi)}`` pairs."""
        return cls({name: Interval(lo, hi) for name, (lo, hi) in bounds.items()})

    @classmethod
    def point(cls, values: Mapping[str, int]) -> "RangeQuery":
        """Build a point query from ``{attribute: value}`` pairs."""
        return cls({name: Interval(v, v) for name, v in values.items()})

    @property
    def attributes(self) -> tuple[str, ...]:
        """The attributes named in the search key, in insertion order."""
        return tuple(self._intervals)

    @property
    def dimensionality(self) -> int:
        """Number of attributes in the search key (the paper's ``k``)."""
        return len(self._intervals)

    @property
    def is_point(self) -> bool:
        """Whether every interval selects a single value."""
        return all(iv.is_point for iv in self._intervals.values())

    def interval(self, attribute: str) -> Interval:
        """The interval constraining ``attribute``."""
        try:
            return self._intervals[attribute]
        except KeyError:
            raise QueryError(f"query does not constrain attribute {attribute!r}")

    def items(self) -> Iterator[tuple[str, Interval]]:
        """Iterate ``(attribute, interval)`` pairs."""
        return iter(self._intervals.items())

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._intervals

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeQuery):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(f"{name} {iv}" for name, iv in self._intervals.items())
        return f"RangeQuery({parts})"
