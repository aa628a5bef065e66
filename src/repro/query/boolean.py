"""Boolean predicate trees over interval atoms (library extension).

The paper formalizes conjunctive range queries only, but the bit-wise
machinery it builds on (Section 4.1: "OR, XOR, AND and NOT are commonly
used") evaluates arbitrary boolean combinations for free.  This module adds
a small predicate algebra:

* :class:`Atom` — one interval constraint on one attribute;
* :class:`And` / :class:`Or` / :class:`Not` — combinators.

**Negation crosses semantics bounds.**  The two
:class:`~repro.query.model.MissingSemantics` are the poles of the
three-valued answer model: ``NOT_MATCH`` computes the *certain* answers
(rows that match no matter what the missing values turn out to be) and
``IS_MATCH`` the *possible* answers (rows that could match for some
completion).  Under that reading a missing row satisfies neither ``p``
certainly nor ``¬p`` certainly, so ``Not`` obeys the bound-swap rule

    certain(¬p) = ¬possible(p)        possible(¬p) = ¬certain(p)

and evaluating ``Not(child)`` under one semantics complements the child
evaluated under the *opposite* semantics.  (Earlier revisions of this
module complemented within a single semantics — ``certain(¬p) was
¬certain(p)`` — which wrongly put every missing row in the certain answer
of ``¬p``; that behavior was a bug, not a contract, and is fixed here and
pinned by regression tests.)  ``And``/``Or`` remain ordinary set
operations bound-by-bound, which keeps every execution engine (oracle
scan, bitmap indexes, VA-file) consistent.

Index execution is one walker, :func:`evaluate_tree`, shared by every
access method: a node evaluates to a tuple of bounds whose length the
requested semantics fixes (``semantics.bounds`` — one element, or
``(certain, possible)`` under ``BOTH``), ``And``/``Or`` combine
element-wise, and ``Not`` evaluates its child under ``semantics.opposite``,
complements each element and reverses the tuple — see ``docs/semantics.md``.
The ground-truth evaluators above it (``evaluate_predicate_mask[_both]``)
are the reference the tests compare against and deliberately do not use
the walker.
"""

from __future__ import annotations

import abc
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import QueryError
from repro.query.model import Interval, MissingSemantics, RangeQuery, ThreeValued


class Predicate(abc.ABC):
    """A boolean predicate over a table's attributes."""

    @abc.abstractmethod
    def attributes(self) -> frozenset[str]:
        """Attributes referenced anywhere in the predicate tree."""

    @abc.abstractmethod
    def atoms(self) -> Iterator["Atom"]:
        """All interval atoms in the tree."""

    def __and__(self, other: "Predicate") -> "And":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Atom(Predicate):
    """An interval constraint ``lo <= attribute <= hi``."""

    attribute: str
    interval: Interval

    @classmethod
    def of(cls, attribute: str, lo: int, hi: int | None = None) -> "Atom":
        """Convenience constructor; ``hi`` defaults to ``lo`` (point atom)."""
        return cls(attribute, Interval(lo, lo if hi is None else hi))

    def attributes(self) -> frozenset[str]:
        return frozenset((self.attribute,))

    def atoms(self) -> Iterator["Atom"]:
        yield self

    def __repr__(self) -> str:
        return f"Atom({self.attribute} {self.interval})"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of child predicates."""

    children: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise QueryError("And requires at least one child")

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(c.attributes() for c in self.children))

    def atoms(self) -> Iterator[Atom]:
        for child in self.children:
            yield from child.atoms()


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of child predicates."""

    children: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise QueryError("Or requires at least one child")

    def attributes(self) -> frozenset[str]:
        return frozenset().union(*(c.attributes() for c in self.children))

    def atoms(self) -> Iterator[Atom]:
        for child in self.children:
            yield from child.atoms()


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a child predicate (set complement of its matches)."""

    child: Predicate

    def attributes(self) -> frozenset[str]:
        return self.child.attributes()

    def atoms(self) -> Iterator[Atom]:
        yield from self.child.atoms()


def from_range_query(query: RangeQuery) -> Predicate:
    """The predicate equivalent of a conjunctive range query."""
    atoms = [Atom(name, interval) for name, interval in query.items()]
    if len(atoms) == 1:
        return atoms[0]
    return And(tuple(atoms))


# -- oracle evaluation ----------------------------------------------------------

def evaluate_predicate_mask(
    table,
    predicate: Predicate,
    semantics: MissingSemantics,
) -> np.ndarray:
    """Ground-truth boolean mask for a predicate via direct column scans."""
    if isinstance(predicate, Atom):
        column = table.column(predicate.attribute)
        cardinality = table.schema.cardinality(predicate.attribute)
        if predicate.interval.hi > cardinality:
            from repro.errors import DomainError

            raise DomainError(
                f"interval {predicate.interval} exceeds domain "
                f"1..{cardinality} of attribute {predicate.attribute!r}"
            )
        mask = (column >= predicate.interval.lo) & (
            column <= predicate.interval.hi
        )
        if semantics is MissingSemantics.IS_MATCH:
            mask |= column == 0
        return mask
    if isinstance(predicate, And):
        masks = [
            evaluate_predicate_mask(table, child, semantics)
            for child in predicate.children
        ]
        return np.logical_and.reduce(masks)
    if isinstance(predicate, Or):
        masks = [
            evaluate_predicate_mask(table, child, semantics)
            for child in predicate.children
        ]
        return np.logical_or.reduce(masks)
    if isinstance(predicate, Not):
        # Bound-swap rule: the child is evaluated under the opposite
        # semantics, so a missing row is in neither certain(p) nor
        # certain(¬p) but in both possible(p) and possible(¬p).
        return ~evaluate_predicate_mask(
            table, predicate.child, semantics.opposite
        )
    raise QueryError(f"unknown predicate type {type(predicate).__name__}")


def evaluate_predicate(
    table,
    predicate: Predicate,
    semantics: MissingSemantics,
) -> np.ndarray:
    """Sorted matching record ids for a predicate (ground truth)."""
    return np.flatnonzero(evaluate_predicate_mask(table, predicate, semantics))


def evaluate_predicate_mask_both(
    table,
    predicate: Predicate,
) -> tuple[np.ndarray, np.ndarray]:
    """One-pass ground-truth ``(certain, possible)`` mask pair.

    Each atom's in-range scan happens once; the possible bound adds the
    attribute's missing rows on top of it.  ``And``/``Or`` combine the
    bounds pairwise and ``Not`` swaps them.
    """
    if isinstance(predicate, Atom):
        column = table.column(predicate.attribute)
        cardinality = table.schema.cardinality(predicate.attribute)
        if predicate.interval.hi > cardinality:
            from repro.errors import DomainError

            raise DomainError(
                f"interval {predicate.interval} exceeds domain "
                f"1..{cardinality} of attribute {predicate.attribute!r}"
            )
        certain = (column >= predicate.interval.lo) & (
            column <= predicate.interval.hi
        )
        possible = certain | (column == 0)
        return certain, possible
    if isinstance(predicate, (And, Or)):
        pairs = [
            evaluate_predicate_mask_both(table, child)
            for child in predicate.children
        ]
        combine = np.logical_and if isinstance(predicate, And) else np.logical_or
        certain, possible = pairs[0]
        for next_certain, next_possible in pairs[1:]:
            certain = combine(certain, next_certain)
            possible = combine(possible, next_possible)
        return certain, possible
    if isinstance(predicate, Not):
        certain, possible = evaluate_predicate_mask_both(table, predicate.child)
        return ~possible, ~certain
    raise QueryError(f"unknown predicate type {type(predicate).__name__}")


def evaluate_predicate_both(
    table,
    predicate: Predicate,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ``(certain_ids, possible_ids)`` for a predicate (ground truth)."""
    certain, possible = evaluate_predicate_mask_both(table, predicate)
    return np.flatnonzero(certain), np.flatnonzero(possible)


# -- index execution -------------------------------------------------------------

def evaluate_tree(
    predicate: Predicate,
    semantics: "MissingSemantics | ThreeValued",
    leaf,
    counter=None,
) -> tuple:
    """Evaluate a predicate tree on any access method; returns its bounds.

    ``leaf(atom, semantics)`` is the access method's own atom evaluation
    and returns one operand per bound in ``semantics.bounds`` — bitvectors
    for the bitmap indexes, boolean masks for the VA-file; anything with
    ``&``, ``|`` and ``~`` works.  The result has the same arity: ``(x,)``
    under a single semantics, ``(certain, possible)`` under ``BOTH``.
    ``counter`` (an :class:`~repro.bitvector.ops.OpCounter`) tallies the
    combinator operations when given.
    """
    if isinstance(predicate, Atom):
        return tuple(leaf(predicate, semantics))
    if isinstance(predicate, (And, Or)):
        combine = operator.and_ if isinstance(predicate, And) else operator.or_
        combined, *rest = (
            evaluate_tree(child, semantics, leaf, counter)
            for child in predicate.children
        )
        for nxt in rest:
            if counter is not None:
                for left, right in zip(combined, nxt):
                    counter.record_binary(left, right)
            combined = tuple(map(combine, combined, nxt))
        return combined
    if isinstance(predicate, Not):
        # certain(¬p) = ¬possible(p) and vice versa: complement the child
        # evaluated under the opposite semantics and reverse the bounds —
        # a no-op at arity 1, the swap at arity 2 (BOTH is its own
        # opposite).
        inner = evaluate_tree(predicate.child, semantics.opposite, leaf, counter)
        if counter is not None:
            for bound in inner:
                counter.record_not(bound)
        return tuple(~bound for bound in reversed(inner))
    raise QueryError(f"unknown predicate type {type(predicate).__name__}")
