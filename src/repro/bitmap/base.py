"""Common machinery for bitmap indexes over incomplete tables.

A bitmap index here covers a set of attributes of one
:class:`~repro.dataset.table.IncompleteTable`.  For each indexed attribute it
holds a family of bitvectors ``B_{i,j}`` (one per encoded value, plus the
missing-value bitmap ``B_{i,0}`` when the attribute has missing data), all in
a single codec (``none`` | ``wah`` | ``bbc``).

Concrete encodings implement their interval evaluation: BEE and BRE
(:mod:`repro.bitmap.equality`, :mod:`repro.bitmap.range_encoded`) once, as
:meth:`AlgebraicBitmapIndex._bounds` over an evaluator, the others as
:meth:`BitmapIndex.evaluate_interval`; query execution ANDs the
per-attribute interval results, exactly as in the paper's Section 4.
"""

from __future__ import annotations

import abc
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from repro.bitvector.kernels import wah_encoded_length
from repro.bitvector.ops import (
    OpCounter,
    big_and,
    big_or,
    make_bitvector,
    make_zeros,
)
from repro.bitvector.wah import (
    GROUP_BITS,
    WahBitVector,
    andnot_groups,
    invert_groups,
)
from repro.bitvector.wah import join as join_wah
from repro.dataset.table import IncompleteTable
from repro.errors import DomainError, IndexBuildError, QueryError
from repro.observability import current_trace as _current_trace
from repro.observability import enabled as _obs_enabled
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

#: The span an interval evaluation opens while no trace is active.
_NO_SPAN = nullcontext()

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

    ``carried`` holds WAH slots an earlier join already read, over rows
    whose first ``kept`` ranges are these ones: such a slot copies their
    groups from it and decodes only the ranges after them, and it is
    priced so.
    """

    __slots__ = ("parts", "_slots", "carried", "kept")

    def __init__(
        self,
        parts: list[_AttributeBitmaps],
        carried: Mapping[int, WahBitVector] | None = None,
        kept: int = 0,
    ):
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
        self.kept = kept
        self.carried = {}
        self.unread = {}
        if self.codec == "wah":
            if kept and carried:
                self.carried = {
                    j: vec for j, vec in carried.items() if j in self._slots
                }
            for j in self._slots:
                read = parts[kept:] if j in self.carried else parts
                self.unread[j] = sum(part.unread.get(j, 0) for part in read)

    @property
    def slots(self):
        return self._slots

    def stored(self, j: int):
        vec = self.vectors.get(j)
        if vec is None:
            if j not in self._slots:
                return super().stored(j)
            vec = self.vectors.setdefault(j, self._join(j))
            self.carried.pop(j, None)
        return vec

    def _join(self, j: int):
        head = self.carried.get(j)
        kept = 0 if head is None else self.kept
        pieces = [
            part.stored(j) if part.has_bitmap(j)
            else make_zeros(part.nbits, self.codec)
            for part in self.parts[kept:]
        ]
        if self.codec == "wah":
            return join_wah(
                pieces, head, sum(part.nbits for part in self.parts[:kept])
            )
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


class Operators:
    """The steps of a Figure 2/3 expression, one bitvector operator each.

    Works on every codec, and is the reference the in-place WAH evaluator
    (:class:`_GroupKernel`) is checked against.  Each step is recorded on
    ``counter`` (when given) as it runs.  Operands are bitvectors.
    """

    __slots__ = ("counter",)

    def __init__(self, counter: OpCounter | None = None):
        self.counter = counter

    def read(self, family: _AttributeBitmaps, j: int):
        """Stored ``B_{i,j}`` as an operand, counted as touched."""
        vec = family.bitmap(j)
        if self.counter is not None:
            self.counter.record_touch()
        return vec

    def consult(self, semantics: MissingSemantics) -> None:
        """Account one read of ``B_{i,0}`` under ``semantics``."""
        record_missing_consultation(semantics)

    def missing(self, family: _AttributeBitmaps, semantics: MissingSemantics):
        """``B_{i,0}`` read under ``semantics``; None when nothing is missing."""
        if not family.has_missing:
            return None
        self.consult(semantics)
        return self.read(family, 0)

    def ones(self, family: _AttributeBitmaps):
        """The synthesized all-ones bitmap (not a stored read)."""
        return constant_vector(family, True)

    def union(self, family: _AttributeBitmaps, slots: list[int]):
        """OR of the stored bitmaps ``slots``, all counted as touched."""
        return big_or([family.bitmap(j) for j in slots], self.counter)

    def xor(self, a, b):
        self._binary(a, b)
        return a ^ b

    def or_(self, a, b):
        self._binary(a, b)
        return a | b

    def andnot(self, a, b):
        self._binary(a, b)
        return a.andnot(b)

    def not_(self, a):
        if self.counter is not None:
            self.counter.record_not(a)
        return ~a

    def and_all(self, parts: tuple):
        """The query's AND of one bound's per-dimension operands."""
        return big_and(parts, self.counter)

    def widen(self, family: _AttributeBitmaps, certain):
        """``certain OR B_0`` — the possible bound from the certain one."""
        missing = self.missing(family, MissingSemantics.IS_MATCH)
        return certain if missing is None else self.or_(certain, missing)

    def narrow(self, family: _AttributeBitmaps, possible):
        """``possible ANDNOT B_0`` — the certain bound from the possible one.

        Valid because the certain answer never contains a missing row
        (``certain ∩ B_0 = ∅``) while the possible answer contains all of
        them, so stripping ``B_0`` recovers certain exactly.
        """
        missing = self.missing(family, MissingSemantics.NOT_MATCH)
        return possible if missing is None else self.andnot(possible, missing)

    def flush(self) -> None:
        """Report the tallies of the steps since the last flush (none held)."""

    def vectors(self, bounds: tuple) -> tuple:
        """``bounds`` as bitvectors."""
        return bounds

    def _binary(self, a, b) -> None:
        if self.counter is not None:
            self.counter.record_binary(a, b)


class _Ones:
    """One synthesized all-ones ``B_C`` in a :class:`_GroupKernel` step.

    It shares the constant built once per length (:func:`_constant`), and
    its stream counts as decoded the first time an operation reads it, as
    a freshly built constant's would.  It is never WAH-encoded per query.
    """

    __slots__ = ("vector", "charged")

    def __init__(self, vector: WahBitVector):
        self.vector = vector
        self.charged = False

    def words32(self) -> int:
        return self.vector.words32()


class _GroupKernel(Operators):
    """The same steps as numpy ufuncs on WAH group arrays.

    An operand is a stored :class:`WahBitVector`, a synthesized
    :class:`_Ones`, or a group array this kernel wrote (an intermediate).
    Every step writes a fresh array, so an operand is never changed under
    a bound that still holds it; :meth:`and_all` writes each bound's AND
    in place into one accumulator of its own.

    The paper's counts are read off the same operands and tallied in
    plain ints: stored operands are sized by their memoised length,
    intermediates with ``wah_encoded_length`` and only when ``counter``
    is given.  :meth:`flush` records each name once, with the totals and
    names the per-operator path records.  A stored stream is decoded, and
    charged to ``wah.words_decoded``, by the first operation that reads
    it, as in :class:`Operators`.
    """

    __slots__ = (
        "nbits", "decoded", "is_match", "not_match",
        "touched", "binary_ops", "not_ops", "words", "wah_ops",
    )

    def __init__(self, nbits: int, counter: OpCounter | None, observing: bool):
        super().__init__(counter)
        self.nbits = nbits
        #: Streams decoded since the last flush; None when nothing listens.
        self.decoded: list | None = [] if observing else None
        #: ``B_{i,0}`` consultations under each semantics.
        self.is_match = self.not_match = 0
        self.touched = self.binary_ops = self.not_ops = 0
        self.words = self.wah_ops = 0

    def read(self, family: _AttributeBitmaps, j: int):
        self.touched += 1
        return family.bitmap(j)

    def consult(self, semantics: MissingSemantics) -> None:
        if semantics is MissingSemantics.IS_MATCH:
            self.is_match += 1
        else:
            self.not_match += 1

    def ones(self, family: _AttributeBitmaps):
        return _Ones(_constant("wah", family.nbits, True))

    def union(self, family: _AttributeBitmaps, slots: list[int]):
        vectors = list(map(family.bitmap, slots))
        self.touched += len(vectors)
        if len(vectors) == 1:
            return vectors[0]
        decoded = self.decoded
        first, second, *rest = [vec._group_array(decoded) for vec in vectors]
        acc = np.bitwise_or(first, second)
        for groups in rest:
            np.bitwise_or(acc, groups, out=acc)
        ops = len(vectors) - 1
        self.wah_ops += ops
        if self.counter is not None:
            # Pairwise for two operands; a wider union is charged its
            # operands and its result, as :func:`big_or` charges it.
            self.binary_ops += ops
            self.words += sum([vec.words32() for vec in vectors])
            if rest:
                self.words += wah_encoded_length(acc)
        return acc

    def xor(self, a, b):
        return self._apply(np.bitwise_xor, a, b)

    def or_(self, a, b):
        return self._apply(np.bitwise_or, a, b)

    def andnot(self, a, b):
        return self._apply(andnot_groups, a, b)

    def not_(self, a):
        self.wah_ops += 1
        if self.counter is not None:
            self.not_ops += 1
            self.words += _size(a)
        return invert_groups(self._take(a), self.nbits)

    def and_all(self, parts: tuple):
        acc, owned = parts[0], False
        for part in parts[1:]:
            self.wah_ops += 1
            if self.counter is not None:
                self.binary_ops += 1
                self.words += _size(acc) + _size(part)
            left, right = self._take(acc), self._take(part)
            if type(part) is _Ones:  # B_C is the AND identity
                acc = left
            elif type(acc) is _Ones:
                acc, owned = right, False
            else:
                acc = np.bitwise_and(left, right, out=left if owned else None)
                owned = True
        return acc

    def flush(self) -> None:
        decoded = self.decoded
        if decoded is None and self.counter is None:
            return  # nothing listens: the tallies are never read
        if decoded is not None:
            if self.wah_ops:
                _obs_record("wah.ops", self.wah_ops)
                _obs_record("wah.words_decoded", sum(map(len, decoded)))
                decoded.clear()
            if self.is_match:
                _obs_record(_MISSING_CONSULTED_METRIC[MissingSemantics.IS_MATCH],
                            self.is_match)
            if self.not_match:
                _obs_record(_MISSING_CONSULTED_METRIC[MissingSemantics.NOT_MATCH],
                            self.not_match)
        if self.counter is not None:
            self.counter.record_tally(
                self.touched, self.binary_ops, self.not_ops, self.words
            )
        self.is_match = self.not_match = 0
        self.touched = self.binary_ops = self.not_ops = 0
        self.words = self.wah_ops = 0

    def vectors(self, bounds: tuple) -> tuple:
        # Two bounds that are one operand stay one vector, as they were
        # one bitvector under the operators.
        if len(bounds) == 2 and bounds[0] is bounds[1]:
            return (self._vector(bounds[0]),) * 2
        return tuple(map(self._vector, bounds))

    def _vector(self, operand) -> WahBitVector:
        if type(operand) is np.ndarray:
            return WahBitVector._from_groups(self.nbits, operand)
        if type(operand) is _Ones:
            ones = operand.vector
            if operand.charged:
                return WahBitVector._from_groups(
                    self.nbits, ones._group_array(), stored=True
                )
            return WahBitVector._from_words(self.nbits, ones.words)
        return operand

    def _apply(self, ufunc, a, b) -> np.ndarray:
        self.wah_ops += 1
        if self.counter is not None:
            self.binary_ops += 1
            self.words += _size(a) + _size(b)
        return ufunc(self._take(a), self._take(b))

    def _take(self, operand) -> np.ndarray:
        """``operand``'s group array, decoding a stored stream on first read."""
        if type(operand) is np.ndarray:
            return operand
        if type(operand) is _Ones:
            if not operand.charged:
                operand.charged = True
                if self.decoded is not None:
                    self.decoded.append(operand.vector.words)
            return operand.vector._group_array()
        return operand._group_array(self.decoded)


def _size(operand) -> int:
    """Words an operand would occupy as a WAH stream (the paper's currency)."""
    if type(operand) is np.ndarray:
        return wah_encoded_length(operand)
    return operand.words32()


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
        return certain, Operators(counter).widen(self._family(attribute), certain)

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

    def _operators(self, counter: OpCounter | None, observing: bool) -> Operators:
        """The evaluator a query's steps run on."""
        return Operators(counter)

    def _column(
        self,
        ops: Operators,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics | ThreeValued,
    ) -> tuple:
        """One query dimension's bounds, as ``ops`` operands."""
        return self.evaluate_bounds(attribute, interval, semantics, ops.counter)

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
        trace), the query runs under one tally; with a trace, each interval
        evaluation runs inside its own span, which carries that dimension's
        bitvector/word tallies.  Otherwise no tally, span or
        :class:`OpCounter` is built.
        """
        with _QueryTally() as observing:
            if observing and counter is None:
                counter = OpCounter()
            ops = self._operators(counter, observing)
            trace = _current_trace()
            columns = []
            for name, interval in query.items():
                span = _NO_SPAN if trace is None else trace.span(
                    f"{self.encoding}.interval",
                    attribute=name, interval=str(interval),
                )
                with span:
                    columns.append(self._column(ops, name, interval, semantics))
                    ops.flush()
            with _trace_span("bitmap.and", operands=sum(map(len, columns))):
                results = tuple(ops.and_all(parts) for parts in zip(*columns))
                ops.flush()
            return ops.vectors(results)

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
    def join(
        cls, parts: "list[BitmapIndex]", carried: tuple | None = None
    ) -> "BitmapIndex":
        """The index over ``parts``' rows laid end to end.

        ``parts`` are one encoding and codec over consecutive row ranges of
        one table.  Nothing is joined here: each slot joins its parts'
        bitmaps on its first read (the planner prices that as a decode).
        ``carried`` is ``(kept, slots)``: an earlier join's
        :meth:`joined_slots` over rows whose first ``kept`` ranges are
        ``parts[:kept]``, whose groups those slots copy instead.
        """
        kept, slots = carried or (0, {})
        first = parts[0]
        index = cls.__new__(cls)
        index._codec = first._codec
        index._nbits = sum(part._nbits for part in parts)
        index._attrs = {
            name: _JoinedBitmaps(
                [part._attrs[name] for part in parts], slots.get(name), kept
            )
            for name in first._attrs
        }
        return index

    def joined_slots(self) -> dict[str, dict[int, WahBitVector]]:
        """The WAH slots joined so far, by attribute: what a later join
        over the same leading rows copies (empty unless this index was
        joined from row ranges)."""
        return {
            name: dict(family.vectors)
            for name, family in self._attrs.items()
            if isinstance(family, _JoinedBitmaps) and family.codec == "wah"
            and family.vectors
        }

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


class AlgebraicBitmapIndex(BitmapIndex):
    """An encoding whose Figure 2/3 case analysis is written once, in
    :meth:`_bounds`, over the steps of an evaluator.

    :meth:`evaluate_interval` and :meth:`evaluate_interval_both` run it one
    bitvector operator at a time on any codec: the reference.  Queries and
    predicate atoms (:meth:`execute_bounds`, :meth:`evaluate_bounds`) run it
    in place on the stored group arrays when the codec is WAH, and with the
    operators otherwise.
    """

    @abc.abstractmethod
    def _bounds(
        self,
        ops: Operators,
        family: _AttributeBitmaps,
        interval: Interval,
        semantics: MissingSemantics | ThreeValued,
    ) -> tuple:
        """One interval's bounds, as ``ops`` operands (one per bound)."""

    def evaluate_interval(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics,
        counter: OpCounter | None = None,
    ):
        """Evaluate one query interval with bitvector operators."""
        ops = Operators(counter)
        (result,) = self._column(ops, attribute, interval, semantics)
        return result

    def evaluate_interval_both(
        self,
        attribute: str,
        interval: Interval,
        counter: OpCounter | None = None,
    ):
        """Both bounds of one interval with bitvector operators."""
        return self._column(Operators(counter), attribute, interval, BOTH)

    def evaluate_bounds(
        self,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics | ThreeValued,
        counter: OpCounter | None = None,
    ) -> tuple:
        """One interval's bounds as bitvectors, in place on WAH."""
        ops = self._operators(counter, _obs_enabled())
        bounds = self._column(ops, attribute, interval, semantics)
        ops.flush()
        return ops.vectors(bounds)

    def _operators(self, counter: OpCounter | None, observing: bool) -> Operators:
        if self._codec == "wah":
            return _GroupKernel(self._nbits, counter, observing)
        return Operators(counter)

    def _column(
        self,
        ops: Operators,
        attribute: str,
        interval: Interval,
        semantics: MissingSemantics | ThreeValued,
    ) -> tuple:
        self._check_interval(attribute, interval)
        return self._bounds(ops, self._family(attribute), interval, semantics)


def constant_vector(family: _AttributeBitmaps, value: bool):
    """An all-``value`` bitvector shaped like ``family``'s bitmaps.

    Used for the synthesized bitmaps the encodings drop from storage (the
    all-ones ``B_{i,C}`` of range encoding, or an absent ``B_{i,0}`` when an
    attribute has no missing data).  Synthesized constants are not counted as
    bitmap accesses.  A WAH or verbatim constant is built once per length
    and value; a WAH one comes as a fresh vector over the shared stream, so
    the first operation that reads it decodes it, as it would a new
    constant.  A BBC constant is still encoded per call: the ``bbc.*``
    encode counters of a query include it.
    """
    if family.codec == "bbc":
        return make_bitvector(np.full(family.nbits, value, dtype=bool), "bbc")
    vec = _constant(family.codec, family.nbits, value)
    if family.codec == "wah":
        return WahBitVector._from_words(vec.nbits, vec.words)
    return vec


@lru_cache(maxsize=64)
def _constant(codec: str, nbits: int, value: bool):
    """The one all-``value`` bitvector of a codec and length.

    Shared safely: no bitvector operator changes its operands.
    """
    return make_bitvector(np.full(nbits, value, dtype=bool), codec)
