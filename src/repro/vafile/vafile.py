"""VA-files with missing-data support (Section 4.5).

A VA-file stores, for every record, a ``b_i``-bit approximation (bin code)
of each indexed attribute.  Queries run in two phases:

1. **scan** — compare every record's codes against the query's code range,
   producing candidates.  Under missing-is-a-match the all-zeros missing
   code is also accepted: the paper's query translation
   ``(VA(v1) <= VA(A_i) <= VA(v2)) v (VA(A_i) = 0^b)``.
2. **refine** — for candidates whose code lies in a *partially* overlapping
   boundary bin, read the actual value and keep exact matches only.

With the paper's default bit budget (``b_i = ceil(lg(C_i + 1))``) every bin
holds at most one value, so refinement never fires; smaller budgets trade
index size for refinement work (Tables 5–6 example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.bitvector.ops import OpCounter
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
from repro.vafile.quantizer import MISSING_CODE, QuantileQuantizer, UniformQuantizer


@dataclass
class VaQueryStats:
    """Work done by VA-file query executions."""

    #: Code entries compared during scans (n per query dimension).
    codes_scanned: int = 0
    #: Records surviving the approximate phase.
    candidates: int = 0
    #: Records whose actual values were read during refinement.
    records_refined: int = 0
    #: Queries executed.
    queries: int = 0

    def merge(self, other: "VaQueryStats") -> None:
        """Accumulate another stats object into this one."""
        self.codes_scanned += other.codes_scanned
        self.candidates += other.candidates
        self.records_refined += other.records_refined
        self.queries += other.queries


def _code_dtype(bits: int):
    if bits <= 8:
        return np.uint8
    if bits <= 16:
        return np.uint16
    return np.uint32


class VAFile:
    """A vector-approximation file over selected attributes of a table.

    Parameters
    ----------
    table:
        The table to index.  The table is retained for the refinement phase
        (the paper's "actual database pages").
    attributes:
        Attribute names to index; defaults to all schema attributes.
    bits:
        Optional per-attribute bit budgets ``{name: b_i}``; defaults to the
        paper's ``ceil(lg(C_i + 1))`` for unlisted attributes.
    quantization:
        ``"uniform"`` (the paper's scheme) or ``"vaplus"`` (quantile-based
        bins for skewed data, the paper's future-work extension [6]).
    """

    def __init__(
        self,
        table: IncompleteTable,
        attributes: Iterable[str] | None = None,
        bits: Mapping[str, int] | None = None,
        quantization: str = "uniform",
    ):
        if attributes is None:
            attributes = table.schema.names
        names = list(attributes)
        if not names:
            raise IndexBuildError("VA-file requires at least one attribute")
        if quantization not in ("uniform", "vaplus"):
            raise IndexBuildError(
                f"unknown quantization {quantization!r}; "
                f"expected 'uniform' or 'vaplus'"
            )
        bits = dict(bits or {})
        self._table = table
        self._quantization = quantization
        self._quantizers: dict[str, UniformQuantizer | QuantileQuantizer] = {}
        self._codes: dict[str, np.ndarray] = {}
        for name in names:
            cardinality = table.schema.cardinality(name)
            column = table.column(name)
            budget = bits.get(name)
            if quantization == "uniform":
                quantizer = UniformQuantizer(cardinality, budget)
            else:
                quantizer = QuantileQuantizer(cardinality, column, budget)
            codes = quantizer.encode(column).astype(_code_dtype(quantizer.bits))
            codes.setflags(write=False)
            self._quantizers[name] = quantizer
            self._codes[name] = codes

    # -- accessors ---------------------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        """Indexed attribute names."""
        return tuple(self._quantizers)

    @property
    def num_records(self) -> int:
        """Number of records approximated."""
        return self._table.num_records

    @property
    def quantization(self) -> str:
        """The quantization scheme in use."""
        return self._quantization

    def quantizer(self, attribute: str):
        """The quantizer for one attribute."""
        try:
            return self._quantizers[attribute]
        except KeyError:
            raise QueryError(
                f"attribute {attribute!r} is not covered by this VA-file"
            )

    def codes(self, attribute: str) -> np.ndarray:
        """The stored bin codes for one attribute (read-only)."""
        self.quantizer(attribute)
        return self._codes[attribute]

    def bits(self, attribute: str) -> int:
        """Bits per approximation for one attribute."""
        return self.quantizer(attribute).bits

    # -- size accounting ------------------------------------------------------

    def nbytes(self) -> int:
        """Bit-packed on-disk size: approximations plus lookup tables."""
        total = 0
        n = self.num_records
        for name, quantizer in self._quantizers.items():
            total += (n * quantizer.bits + 7) // 8
            # Lookup table: (lo, hi) as two 32-bit ints per usable bin.
            total += 8 * quantizer.nbins
        return total

    def approximation_nbytes(self) -> int:
        """Bit-packed size of the approximations alone."""
        n = self.num_records
        return sum((n * q.bits + 7) // 8 for q in self._quantizers.values())

    # -- query execution -------------------------------------------------------

    def _code_bounds(self, attribute: str, interval: Interval) -> tuple[int, int]:
        quantizer = self.quantizer(attribute)
        if interval.hi > quantizer.cardinality:
            raise DomainError(
                f"interval {interval} exceeds domain 1..{quantizer.cardinality} "
                f"of attribute {attribute!r}"
            )
        return (
            quantizer.encode_value(interval.lo),
            quantizer.encode_value(interval.hi),
        )

    def _partial_codes(self, attribute: str, interval: Interval) -> list[int]:
        """The interval's boundary bin codes that hold values outside it."""
        quantizer = self.quantizer(attribute)
        return [
            code
            for code in set(self._code_bounds(attribute, interval))
            if not _bin_inside(quantizer.bin_range(code), interval)
        ]

    def refines(self, attribute: str, interval: Interval) -> bool:
        """Whether a query on ``interval`` needs a refinement pass here.

        True when a boundary bin also holds values outside the interval
        (never under the default one-value-per-bin budget).
        """
        return not self.quantizer(attribute).is_exact() and bool(
            self._partial_codes(attribute, interval)
        )

    def _interval_masks(
        self,
        name: str,
        interval: Interval,
        semantics: MissingSemantics | ThreeValued,
        stats: VaQueryStats | None,
        counter: OpCounter | None,
        shared_masks: dict | None = None,
    ) -> list[np.ndarray]:
        """One dimension's approximate match masks, one per bound.

        One pass over the stored codes serves every bound asked for: the
        in-range comparison is the certain mask, and ORing in the
        missing-code rows gives the possible mask.

        ``shared_masks`` is the batch executor's per-group memo: within one
        batch every distinct ``(attribute, interval, bound)`` scans the
        stored codes once, and queries repeating it reuse the boolean mask
        without re-touching the approximations (the reuse is what the
        ``vafile.batch_mask_reuses`` counter tallies).  Masks are memoized
        per bound, so both-mode and single-bound queries in one batch share
        scans either way.
        """
        wanted = semantics.bounds
        if shared_masks is not None:
            keys = [
                (name, interval.lo, interval.hi, bound.value)
                for bound in wanted
            ]
            cached = [shared_masks.get(key) for key in keys]
            if all(mask is not None for mask in cached):
                _obs_record("vafile.batch_mask_reuses", len(cached))
                return cached
        codes = self.codes(name)
        lo_code, hi_code = self._code_bounds(name, interval)
        in_range = (codes >= lo_code) & (codes <= hi_code)
        masks = [in_range] * len(wanted)
        if wanted[-1] is MissingSemantics.IS_MATCH:
            # The possible bound, when asked for, is the widest: last.
            # ORed into the missing-code mask's own buffer, so no bound
            # costs an allocation the other does not need.
            possible = codes == MISSING_CODE
            possible |= in_range
            masks[-1] = possible
        if stats is not None:
            stats.codes_scanned += len(codes)
        _obs_record("vafile.codes_scanned", len(codes))
        if counter is not None:
            # Cost-model units: one item per approximation examined.
            # This is the paper's own cross-technique currency — "the
            # VA-file implementation had to operate over about 500,000
            # vector approximations of the records, [while] the bitmap
            # implementations performed bit operations over
            # substantially fewer words" (Section 5.3).
            counter.words_processed += len(codes)
        if shared_masks is not None:
            for key, mask in zip(keys, masks):
                mask.setflags(write=False)
                shared_masks[key] = mask
        return masks

    def _candidate_masks(
        self,
        query: RangeQuery,
        semantics: MissingSemantics | ThreeValued,
        stats: VaQueryStats | None = None,
        counter: OpCounter | None = None,
        shared_masks: dict | None = None,
    ) -> list[np.ndarray]:
        """Phase 1: the approximate (no-false-dismissal) candidates per bound."""
        masks = [
            np.ones(self.num_records, dtype=bool) for _ in semantics.bounds
        ]
        for name, interval in query.items():
            dimensions = self._interval_masks(
                name, interval, semantics, stats, counter, shared_masks
            )
            for mask, dimension in zip(masks, dimensions):
                mask &= dimension
        if stats is not None:
            # The widest bound's candidates are a superset of every other's.
            candidates = int(masks[-1].sum())
            stats.candidates += candidates
            _obs_record("vafile.candidates", candidates)
        return masks

    def candidate_mask(
        self,
        query: RangeQuery,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        stats: VaQueryStats | None = None,
        counter: OpCounter | None = None,
        shared_masks: dict | None = None,
    ) -> np.ndarray:
        """Phase 1 under one semantics: the approximate candidate set."""
        (mask,) = self._candidate_masks(
            query, semantics, stats, counter, shared_masks
        )
        return mask

    def _exact_masks(
        self,
        query: RangeQuery,
        semantics: MissingSemantics | ThreeValued,
        stats: VaQueryStats | None = None,
        counter: OpCounter | None = None,
        shared_masks: dict | None = None,
    ) -> list[np.ndarray]:
        """Exact answer masks, one per bound: scan then refine.

        Phase 1 scans the stored codes once per dimension for every bound;
        phase 2 refines boundary bins once, against the widest bound's
        candidates (see :meth:`_refine`).  When observability is on, the
        query runs under one tally and the phases count into ``stats`` (a
        private one if none was given), which is what reports them.
        """
        with _QueryTally() as observing:
            if observing and stats is None:
                stats = VaQueryStats()
            with _trace_span("vafile.scan", dimensions=query.dimensionality):
                candidates = self._candidate_masks(
                    query, semantics, stats, counter, shared_masks
                )
            with _trace_span("vafile.refine"):
                exact = self._refine(candidates, query, stats)
            _obs_record("vafile.queries")
        if stats is not None:
            stats.queries += 1
        return exact

    def execute_bound_ids(
        self,
        query: RangeQuery,
        semantics: MissingSemantics | ThreeValued,
        stats: VaQueryStats | None = None,
        counter: OpCounter | None = None,
        shared_masks: dict | None = None,
    ) -> tuple[np.ndarray, ...]:
        """Exact sorted record ids, one array per bound.

        ``shared_masks`` (a plain dict owned by the caller) lets a batch of
        queries share the per-interval scan — see :meth:`_interval_masks`.
        """
        return tuple(map(np.flatnonzero, self._exact_masks(
            query, semantics, stats, counter, shared_masks
        )))

    def execute_ids(
        self,
        query: RangeQuery,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        stats: VaQueryStats | None = None,
        counter: OpCounter | None = None,
        shared_masks: dict | None = None,
    ) -> np.ndarray:
        """Exact sorted record ids under one semantics."""
        (ids,) = self.execute_bound_ids(
            query, semantics, stats, counter, shared_masks
        )
        return ids

    def execute_ids_both(
        self,
        query: RangeQuery,
        stats: VaQueryStats | None = None,
        counter: OpCounter | None = None,
        shared_masks: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``(certain_ids, possible_ids)`` from one scan and one refinement."""
        return self.execute_bound_ids(query, BOTH, stats, counter, shared_masks)

    def execute_predicate_bound_ids(
        self,
        predicate,
        semantics: MissingSemantics | ThreeValued,
        stats: VaQueryStats | None = None,
    ) -> tuple[np.ndarray, ...]:
        """Answer a boolean predicate tree (AND/OR/NOT of atoms) per bound.

        Each atom runs the full scan-and-refine pipeline (so its masks are
        exact), then :func:`repro.query.boolean.evaluate_tree` merges the
        per-atom masks.
        """
        from repro.query.boolean import evaluate_tree

        masks = evaluate_tree(
            predicate,
            semantics,
            lambda atom, bound_semantics: self._exact_masks(
                RangeQuery({atom.attribute: atom.interval}),
                bound_semantics,
                stats,
            ),
        )
        return tuple(map(np.flatnonzero, masks))

    def execute_predicate_ids(
        self,
        predicate,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        stats: VaQueryStats | None = None,
    ) -> np.ndarray:
        """Answer an arbitrary boolean predicate tree (AND/OR/NOT of atoms)."""
        (ids,) = self.execute_predicate_bound_ids(predicate, semantics, stats)
        return ids

    def execute_predicate_ids_both(
        self,
        predicate,
        stats: VaQueryStats | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both bounds of a boolean predicate tree as sorted id arrays."""
        return self.execute_predicate_bound_ids(predicate, BOTH, stats)

    def _refine(
        self,
        candidates: list[np.ndarray],
        query: RangeQuery,
        stats: VaQueryStats | None,
    ) -> list[np.ndarray]:
        """Phase 2: read actual values for boundary-bin candidates.

        Boundary bins are located against the widest bound's candidate set
        (the last element); every other bound is a subset of it and a
        missing value never occupies a boundary *value* bin, so the same
        per-attribute correction ``ok OR NOT boundary`` is exact for every
        bound and the boundary rows are read once.
        """
        exact = [mask.copy() for mask in candidates]
        needs_read = np.zeros(self.num_records, dtype=bool)
        for name, interval in query.items():
            partial_codes = self._partial_codes(name, interval)
            if not partial_codes:
                continue
            codes = self.codes(name)
            boundary = candidates[-1] & np.isin(codes, partial_codes)
            if not boundary.any():
                continue
            needs_read |= boundary
            if stats is not None:
                _obs_record("vafile.cells_visited", int(boundary.sum()))
            column = self._table.column(name)
            keep = ((column >= interval.lo) & (column <= interval.hi)) | ~boundary
            for mask in exact:
                mask &= keep
        if stats is not None:
            refined = int(needs_read.sum())
            stats.records_refined += refined
            _obs_record("vafile.records_refined", refined)
        return exact


def _bin_inside(bin_range: tuple[int, int], interval: Interval) -> bool:
    lo, hi = bin_range
    return interval.lo <= lo and hi <= interval.hi
