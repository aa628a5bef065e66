"""Common machinery for bitmap indexes over incomplete tables.

A bitmap index here covers a set of attributes of one
:class:`~repro.dataset.table.IncompleteTable`.  For each indexed attribute it
holds a family of bitvectors ``B_{i,j}`` (one per encoded value, plus the
missing-value bitmap ``B_{i,0}`` when the attribute has missing data), all in
a single codec (``none`` | ``wah`` | ``bbc``).

Concrete encodings (:mod:`repro.bitmap.equality`,
:mod:`repro.bitmap.range_encoded`) implement :meth:`BitmapIndex.evaluate_interval`;
query execution ANDs the per-attribute interval results, exactly as in the
paper's Section 4.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.bitvector.ops import OpCounter, big_and, make_bitvector, make_zeros
from repro.bitvector.wah import GROUP_BITS, WahBitVector
from repro.bitvector.wah import join as join_wah
from repro.dataset.table import IncompleteTable
from repro.errors import DomainError, IndexBuildError, QueryError
from repro.observability import record as _obs_record
from repro.observability import trace_span as _trace_span
from repro.observability.metrics import _QueryTally
from repro.query.model import (
    BOTH,
    Interval,
    MissingSemantics,
    RangeQuery,
    ThreeValued,
)

#: Pre-built metric names so hot paths don't format strings per call.
_MISSING_CONSULTED_METRIC = {
    MissingSemantics.IS_MATCH: "bitmap.missing_consulted.is_match",
    MissingSemantics.NOT_MATCH: "bitmap.missing_consulted.not_match",
}


def record_missing_consultation(semantics: MissingSemantics) -> None:
    """Account one read of a missing bitmap ``B_{i,0}`` under ``semantics``.

    Every encoding calls this at the point it fetches the stored missing
    bitmap, so `bitmap.missing_consulted.*` counts exactly the consultations
    each semantics required (synthesized constants don't count, mirroring
    the cost model's treatment of dropped bitmaps).
    """
    _obs_record(_MISSING_CONSULTED_METRIC[semantics])


@dataclass(frozen=True, slots=True)
class AttributeSizeReport:
    """Size accounting for one attribute's bitmap family."""

    attribute: str
    num_bitmaps: int
    compressed_bytes: int
    verbatim_bytes: int

    @property
    def compression_ratio(self) -> float:
        """Compressed over verbatim bytes; < 1 means compression helped."""
        if self.verbatim_bytes == 0:
            return 1.0
        return self.compressed_bytes / self.verbatim_bytes


@dataclass(frozen=True, slots=True)
class IndexSizeReport:
    """Size accounting for a whole bitmap index."""

    per_attribute: tuple[AttributeSizeReport, ...]

    @property
    def total_bytes(self) -> int:
        """Total stored index size in bytes."""
        return sum(r.compressed_bytes for r in self.per_attribute)

    @property
    def total_verbatim_bytes(self) -> int:
        """Total size the same bitmaps would occupy uncompressed."""
        return sum(r.verbatim_bytes for r in self.per_attribute)

    @property
    def compression_ratio(self) -> float:
        """Overall compressed/verbatim ratio across all attributes."""
        verbatim = self.total_verbatim_bytes
        if verbatim == 0:
            return 1.0
        return self.total_bytes / verbatim


class _AttributeBitmaps:
    """The bitvector family ``B_{i,j}`` for one attribute."""

    __slots__ = ("cardinality", "has_missing", "vectors", "nbits", "codec", "unread")

    def __init__(
        self,
        cardinality: int,
        has_missing: bool,
        vectors: Mapping[int, object],
        nbits: int,
        codec: str,
    ):
        self.cardinality = cardinality
        self.has_missing = has_missing
        self.vectors = dict(vectors)
        self.nbits = nbits
        self.codec = codec
        #: Slot -> stored words of each WAH bitmap no query has read yet:
        #: one decodes on its first read and keeps the groups.
        self.unread = {j: vec.words32() for j, vec in self.vectors.items()
                       if isinstance(vec, WahBitVector)}

    @property
    def slots(self):
        """The stored slots ``j``, in storage order."""
        return self.vectors.keys()

    def stored(self, j: int):
        """``B_{i,j}``; raises if the slot is not stored."""
        try:
            return self.vectors[j]
        except KeyError:
            raise QueryError(f"bitmap slot {j} not stored for this attribute")

    def bitmap(self, j: int):
        """``B_{i,j}`` read by a query: it leaves :attr:`unread`."""
        vec = self.stored(j)
        self.unread.pop(j, None)
        return vec

    def has_bitmap(self, j: int) -> bool:
        return j in self.slots

    def stored_vectors(self) -> Iterable:
        """Every stored bitvector, without reading (or joining) it."""
        return self.vectors.values()

    def nbytes(self) -> int:
        return sum(vec.nbytes() for vec in self.stored_vectors())


class _JoinedBitmaps(_AttributeBitmaps):
    """One attribute's bitmaps over consecutive row ranges, each joined
    from its ranges' bitmaps on its first read.

    A range whose rows had no missing value stores no ``B_{i,0}``; its part
    of the joined one is zeros.  Every other slot depends on the value
    alone, so every range stores it.  :attr:`unread` prices a slot's join
    as the decode of its ranges' stored words.
    """

    __slots__ = ("parts", "_slots")

    def __init__(self, parts: list[_AttributeBitmaps]):
        first = parts[0]
        self.parts = parts
        self.cardinality = first.cardinality
        self.has_missing = any(part.has_missing for part in parts)
        self.nbits = sum(part.nbits for part in parts)
        self.codec = first.codec
        self.vectors = {}
        self._slots = (0,) * self.has_missing + tuple(
            j for j in first.slots if j
        )
        self.unread = {}
        if self.codec == "wah":
            for j in self._slots:
                self.unread[j] = sum(part.unread.get(j, 0) for part in parts)

    @property
    def slots(self):
        return self._slots

    def stored(self, j: int):
        vec = self.vectors.get(j)
        if vec is None:
            if j not in self._slots:
                return super().stored(j)
            vec = self.vectors.setdefault(j, self._join(j))
        return vec

    def _join(self, j: int):
        pieces = [
            part.stored(j) if part.has_bitmap(j)
            else make_zeros(part.nbits, self.codec)
            for part in self.parts
        ]
        if self.codec == "wah":
            return join_wah(pieces)
        return make_bitvector(
            np.concatenate([_bools(piece) for piece in pieces]), self.codec
        )

    def stored_vectors(self) -> Iterable:
        for part in self.parts:
            yield from part.stored_vectors()


class _WindowBitmaps(_AttributeBitmaps):
    """Whole 31-bit groups ``[first, stop)`` of a WAH family, as views."""

    __slots__ = ("family", "first", "stop")

    def __init__(self, family: _AttributeBitmaps, first: int, stop: int):
        self.family = family
        self.first = first
        self.stop = stop
        self.cardinality = family.cardinality
        self.has_missing = family.has_missing
        self.nbits = min(family.nbits, stop * GROUP_BITS) - first * GROUP_BITS
        self.codec = family.codec
        self.vectors = {}
        self.unread = {}

    @property
    def slots(self):
        return self.family.slots

    def stored(self, j: int):
        vec = self.vectors.get(j)
        if vec is None:
            vec = self.vectors[j] = self.family.bitmap(j).window(
                self.first, self.stop
            )
        return vec


def _bools(vec) -> np.ndarray:
    """A verbatim, WAH or BBC bitvector's bits as a boolean array."""
    if hasattr(vec, "to_bools"):
        return vec.to_bools()
    return vec.decompress().to_bools()


class BitmapIndex(abc.ABC):
    """Base class for equality- and range-encoded bitmap indexes.

    Parameters
    ----------
    table:
        The table to index.
    attributes:
        Attribute names to index; defaults to all schema attributes.
    codec:
        Bitvector codec: ``"wah"`` (paper default), ``"none"``, or ``"bbc"``.
    """

    #: Human-readable encoding name, set by subclasses.
    encoding: str = "abstract"

    def __init__(
        self,
        table: IncompleteTable,
        attributes: Iterable[str] | None = None,
        codec: str = "wah",
    ):
        if attributes is None:
            attributes = table.schema.names
        names = list(attributes)
        if not names:
            raise IndexBuildError("bitmap index requires at least one attribute")
        self._codec = codec
        self._nbits = table.num_records
        self._attrs: dict[str, _AttributeBitmaps] = {}
        for name in names:
            spec = table.schema.attribute(name)
            column = table.column(name)
            has_missing = bool((column == 0).any())
            vectors = {
                j: make_bitvector(bools, codec)
                for j, bools in self._encode_column(
                    column, spec.cardinality, has_missing
                )
            }
            self._attrs[name] = _AttributeBitmaps(
                spec.cardinality, has_missing, vectors, self._nbits, codec
            )

    # -- construction hooks --------------------------------------------------

    @abc.abstractmethod
    def _encode_column(
        self, column: np.ndarray, cardinality: int, has_missing: bool
    ) -> Iterable[tuple[int, np.ndarray]]:
        """Yield ``(slot j, boolean column)`` pairs for one attribute."""

    # -- interval evaluation ---------------------------------------------------

    @abc.abstractmethod
    def evaluate_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
        counter: OpCounter | None = None,
    ):
        """Evaluate ``v1 <= A_i <= v2`` under ``semantics``; returns a bitvector."""

    def evaluate_interval_both(
        self,
        attribute: str,
        interval: Interval,
        counter: OpCounter | None = None,
    ):
        """One-pass ``(certain, possible)`` bitvector pair for one interval.

        The two bounds differ only in how missing rows are treated, and a
        missing row is never in any value's range, so the exact identity
        ``possible = certain OR B_0`` holds for every encoding.  The
        default derives the pair from a single ``NOT_MATCH`` evaluation
        plus one OR with the missing bitmap — already roughly half the
        work of two independent single-semantics evaluations.  Encodings
        override this where their evaluation structure lets both bounds
        fall out of one shared sub-expression even more cheaply.
        """
        certain = self.evaluate_interval(
            attribute, interval, MissingSemantics.NOT_MATCH, counter
        )
        return certain, self._widen_to_possible(
            self._family(attribute), certain, counter
        )

    def _widen_to_possible(self, family, certain, counter: OpCounter | None):
        """``certain OR B_0`` — the possible bound from the certain one."""
        if not family.has_missing:
            return certain
        record_missing_consultation(MissingSemantics.IS_MATCH)
        missing = family.bitmap(0)
        if counter is not None:
            counter.record_touch()
            counter.record_binary(certain, missing)
        return certain | missing

    def _narrow_to_certain(self, family, possible, counter: OpCounter | None):
        """``possible ANDNOT B_0`` — the certain bound from the possible one.

        Valid because the certain answer never contains a missing row
        (``certain ∩ B_0 = ∅``) while the possible answer contains all of
        them, so stripping ``B_0`` recovers certain exactly.
        """
        if not family.has_missing:
            return possible
        record_missing_consultation(MissingSemantics.NOT_MATCH)
        missing = family.bitmap(0)
        if counter is not None:
            counter.record_touch()
            counter.record_binary(possible, missing)
        return possible.andnot(missing)

    def evaluate_bounds(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics | ThreeValued,
        counter: OpCounter | None = None,
    ) -> tuple:
        """Interval evaluation at any arity: one bitvector per bound.

        A single semantics goes through :meth:`evaluate_interval`, ``BOTH``
        through the one-pass :meth:`evaluate_interval_both`.
        """
        if semantics is BOTH:
            return self.evaluate_interval_both(attribute, interval, counter)
        return (
            self.evaluate_interval(attribute, interval, semantics, counter),
        )

    # -- accessors ---------------------------------------------------------

    @property
    def codec(self) -> str:
        """The bitvector codec in use."""
        return self._codec

    @property
    def num_records(self) -> int:
        """Number of records covered by every bitmap."""
        return self._nbits

    @property
    def attributes(self) -> tuple[str, ...]:
        """Indexed attribute names."""
        return tuple(self._attrs)

    def cardinality(self, attribute: str) -> int:
        """Cardinality ``C_i`` of an indexed attribute."""
        return self._family(attribute).cardinality

    def has_missing(self, attribute: str) -> bool:
        """Whether the attribute contained missing values at build time."""
        return self._family(attribute).has_missing

    def bitmap(self, attribute: str, j: int):
        """Direct access to ``B_{i,j}`` (for tests and inspection)."""
        return self._family(attribute).stored(j)

    def num_bitmaps(self, attribute: str) -> int:
        """Number of stored bitvectors for an attribute."""
        return len(self._family(attribute).slots)

    def stored_bitmaps(self) -> Iterable:
        """Every stored bitvector, attribute by attribute, without reading it."""
        for family in self._attrs.values():
            yield from family.stored_vectors()

    def slots_for_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
    ) -> Iterable[int]:
        """The stored slots :meth:`evaluate_interval` reads: every one
        unless the encoding lists its own (it prices, never evaluates)."""
        return self._family(attribute).slots

    def bitmaps_for_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
    ) -> int:
        """Number of stored bitvectors :meth:`evaluate_interval` will read."""
        return len(self.slots_for_interval(attribute, interval, semantics))

    def undecoded_words(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
    ) -> int:
        """Stored words of the interval's WAH operands no query has read
        yet, which a read still has to decode."""
        unread = self._family(attribute).unread
        slots = self.slots_for_interval(attribute, interval, semantics) if unread else ()
        return sum([unread.get(j, 0) for j in slots])

    def _family(self, attribute: str) -> _AttributeBitmaps:
        try:
            return self._attrs[attribute]
        except KeyError:
            raise QueryError(
                f"attribute {attribute!r} is not covered by this {self.encoding} index"
            )

    def _check_interval(self, attribute: str, interval: Interval) -> None:
        family = self._family(attribute)
        if interval.hi > family.cardinality:
            raise DomainError(
                f"interval {interval} exceeds domain 1..{family.cardinality} "
                f"of attribute {attribute!r}"
            )

    # -- query execution -------------------------------------------------------

    def execute_bounds(
        self,
        query: RangeQuery,
        semantics: MissingSemantics | ThreeValued,
        counter: OpCounter | None = None,
    ) -> tuple:
        """Answer a conjunctive range query; one result bitvector per bound.

        Per-attribute interval results are ANDed together, as in Section 4's
        "range queries are executed by first ORing together all bit vectors
        specified by each range in the search key and then ANDing the answers
        together".  Under
        ``BOTH`` each attribute's ``(certain, possible)`` pair is evaluated
        together (shared stored-bitmap work) and the pairs are ANDed
        bound-by-bound; for a conjunctive query ``certain`` is always a
        subset of ``possible``.

        When observability is on (a real metrics registry or an active
        trace), the query runs under one tally and each interval
        evaluation inside its own span, which carries that dimension's
        bitvector/word tallies; otherwise no tally, span or
        :class:`OpCounter` is built.
        """
        with _QueryTally() as observing:
            if observing and counter is None:
                counter = OpCounter()
            columns = []
            for name, interval in query.items():
                with _trace_span(
                    f"{self.encoding}.interval",
                    attribute=name, interval=str(interval),
                ):
                    columns.append(self.evaluate_bounds(
                        name, interval, semantics, counter
                    ))
            with _trace_span("bitmap.and", operands=sum(map(len, columns))):
                return tuple(
                    big_and(parts, counter) for parts in zip(*columns)
                )

    def execute(
        self,
        query: RangeQuery,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        counter: OpCounter | None = None,
    ):
        """Answer a query under one semantics; returns the result bitvector."""
        (result,) = self.execute_bounds(query, semantics, counter)
        return result

    def execute_both(
        self,
        query: RangeQuery,
        counter: OpCounter | None = None,
    ):
        """Answer a query under both bounds; returns ``(certain, possible)``."""
        return self.execute_bounds(query, BOTH, counter)

    def execute_bound_ids(
        self,
        query: RangeQuery,
        semantics: MissingSemantics | ThreeValued,
        counter: OpCounter | None = None,
    ) -> tuple[np.ndarray, ...]:
        """Answer a query as sorted record-id arrays, one per bound."""
        return tuple(
            result.to_indices()
            for result in self.execute_bounds(query, semantics, counter)
        )

    def execute_ids(
        self,
        query: RangeQuery,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        counter: OpCounter | None = None,
    ) -> np.ndarray:
        """Answer a query as a sorted array of record ids."""
        return self.execute(query, semantics, counter).to_indices()

    def execute_count(
        self,
        query: RangeQuery,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        counter: OpCounter | None = None,
    ) -> int:
        """Number of matching records, without materializing record ids.

        COUNT queries are where bitmap indexes shine: the population count
        runs on the (compressed) result vector directly.
        """
        return self.execute(query, semantics, counter).count()

    def execute_ids_both(
        self,
        query: RangeQuery,
        counter: OpCounter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both bounds as sorted id arrays: ``(certain_ids, possible_ids)``."""
        return self.execute_bound_ids(query, BOTH, counter)

    def execute_count_both(
        self,
        query: RangeQuery,
        counter: OpCounter | None = None,
    ) -> tuple[int, int]:
        """Both bounds' match counts without materializing record ids."""
        return tuple(r.count() for r in self.execute_bounds(query, BOTH, counter))

    def execute_predicate_bound_ids(
        self,
        predicate,
        semantics: MissingSemantics | ThreeValued,
        counter: OpCounter | None = None,
    ) -> tuple[np.ndarray, ...]:
        """Answer a boolean predicate tree (AND/OR/NOT of atoms) per bound.

        Atoms go through the encoding's paper-faithful interval evaluation
        (:meth:`evaluate_bounds`); the combinators become the
        corresponding bitvector operations in
        :func:`repro.query.boolean.evaluate_tree`.
        """
        from repro.query.boolean import evaluate_tree

        results = evaluate_tree(
            predicate,
            semantics,
            lambda atom, bound_semantics: self.evaluate_bounds(
                atom.attribute, atom.interval, bound_semantics, counter
            ),
            counter,
        )
        return tuple(result.to_indices() for result in results)

    def execute_predicate_ids(
        self,
        predicate,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        counter: OpCounter | None = None,
    ) -> np.ndarray:
        """Answer an arbitrary boolean predicate tree (AND/OR/NOT of atoms)."""
        (ids,) = self.execute_predicate_bound_ids(predicate, semantics, counter)
        return ids

    def execute_predicate_ids_both(
        self,
        predicate,
        counter: OpCounter | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both bounds of a boolean predicate tree as sorted id arrays."""
        return self.execute_predicate_bound_ids(predicate, BOTH, counter)

    # -- row ranges ------------------------------------------------------------

    @classmethod
    def join(cls, parts: "list[BitmapIndex]") -> "BitmapIndex":
        """The index over ``parts``' rows laid end to end.

        ``parts`` are one encoding and codec over consecutive row ranges of
        one table.  Nothing is joined here: each slot joins its parts'
        bitmaps on its first read (the planner prices that as a decode).
        """
        first = parts[0]
        index = cls.__new__(cls)
        index._codec = first._codec
        index._nbits = sum(part._nbits for part in parts)
        index._attrs = {
            name: _JoinedBitmaps([part._attrs[name] for part in parts])
            for name in first._attrs
        }
        return index

    def window(self, start: int, stop: int) -> tuple["BitmapIndex", int]:
        """This index over rows ``[start, stop)`` widened to whole 31-bit
        groups, and the first row it covers.

        A WAH window is views of the stored group arrays; another codec has
        no cheap window and answers ``(self, 0)``.
        """
        first = start // GROUP_BITS
        stop = -(-stop // GROUP_BITS)
        if self._codec != "wah" or (first == 0 and stop * GROUP_BITS >= self._nbits):
            return self, 0
        view = type(self).__new__(type(self))
        view._codec = self._codec
        view._attrs = {
            name: _WindowBitmaps(family, first, stop)
            for name, family in self._attrs.items()
        }
        view._nbits = next(iter(view._attrs.values())).nbits
        return view, first * GROUP_BITS

    # -- size accounting -------------------------------------------------------

    def size_report(self) -> IndexSizeReport:
        """Per-attribute and total size of the stored bitmaps.

        Memoized: the planner costs every covering bitmap index against
        every query it ranks, so recomputing per-bitmap byte counts each
        time would make planning scale with index width rather than
        O(attributes).  An index never changes once built, so the memo
        never goes stale.  A joined index reports its parts' stored bytes.
        """
        cached = getattr(self, "_size_report_cache", None)
        if cached is not None:
            return cached
        verbatim_per_bitmap = (self._nbits + 7) // 8
        reports = tuple(
            AttributeSizeReport(
                attribute=name,
                num_bitmaps=len(family.slots),
                compressed_bytes=family.nbytes(),
                verbatim_bytes=len(family.vectors) * verbatim_per_bitmap,
            )
            for name, family in self._attrs.items()
        )
        report = IndexSizeReport(reports)
        self._size_report_cache = report
        return report

    def nbytes(self) -> int:
        """Total stored index size in bytes."""
        return self.size_report().total_bytes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(attributes={len(self._attrs)}, "
            f"records={self._nbits}, codec={self._codec!r})"
        )


def constant_vector(family: _AttributeBitmaps, value: bool):
    """An all-``value`` bitvector shaped like ``family``'s bitmaps.

    Used for the synthesized bitmaps the encodings drop from storage (the
    all-ones ``B_{i,C}`` of range encoding, or an absent ``B_{i,0}`` when an
    attribute has no missing data).  Synthesized constants are not counted as
    bitmap accesses.
    """
    bools = np.full(family.nbits, value, dtype=bool)
    return make_bitvector(bools, family.codec)
