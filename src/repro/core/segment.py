"""Segments: the row ranges a database stores its rows in.

An :class:`~repro.core.engine.IncompleteDatabase` is an ordered tuple of
:class:`Segment` records; segment *k* holds the global rows
``[start_k, start_k + n_k)``.  A segment is a plain immutable record — its
first row id, its table with the table's exact histograms (the zone map)
and the indexes attached over those rows — so a snapshot shares every
segment whose rows it keeps and a change makes new records.  Segments are
the unit of writes, files and hard links (:mod:`repro.serve.writer`,
:mod:`repro.shard.manifest`); they hold no lock, plan memo or scan, and
no query runs on one of a database's segments.  Reads run on the only
segment, or on one segment joined from all of them on the first read,
whose indexes join one by one as reads choose them (:func:`join_index`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.baselines.bitstring import BitstringAugmentedIndex
from repro.baselines.gridfile import GridFileIndex
from repro.baselines.mosaic import MosaicIndex
from repro.baselines.sentinel_rtree import SentinelRTreeIndex
from repro.bitmap.base import BitmapIndex
from repro.bitmap.bitsliced import BitSlicedIndex
from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.interval_encoded import IntervalEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.core.statistics import TableStatistics
from repro.dataset.table import IncompleteTable
from repro.errors import ReproError
from repro.query.model import MissingSemantics, RangeQuery
from repro.vafile.vafile import VAFile

#: Index kind -> builder.  Builders take (table, attributes, **options).
_BUILDERS: dict[str, Callable] = {
    "bee": lambda table, attributes, **opts: EqualityEncodedBitmapIndex(
        table, attributes, **opts
    ),
    "bre": lambda table, attributes, **opts: RangeEncodedBitmapIndex(
        table, attributes, **opts
    ),
    "bie": lambda table, attributes, **opts: IntervalEncodedBitmapIndex(
        table, attributes, **opts
    ),
    "bsl": lambda table, attributes, **opts: BitSlicedIndex(
        table, attributes, **opts
    ),
    "vafile": lambda table, attributes, **opts: VAFile(table, attributes, **opts),
    "mosaic": lambda table, attributes, **opts: MosaicIndex(
        table, attributes, **opts
    ),
    "rtree-sentinel": lambda table, attributes, **opts: SentinelRTreeIndex(
        table, attributes, **opts
    ),
    "bitstring": lambda table, attributes, **opts: BitstringAugmentedIndex(
        table, attributes, **opts
    ),
    "gridfile": lambda table, attributes, **opts: GridFileIndex(
        table, attributes, **opts
    ),
}


@dataclass(frozen=True, slots=True)
class AttachedIndex:
    """An index registered with an :class:`IncompleteDatabase`."""

    name: str
    kind: str
    index: object
    attributes: tuple[str, ...]
    #: Constructor options the index was built with (``codec=``, ``bits=``,
    #: ...).  Kept so writer-path mutations can rebuild the index faithfully
    #: over a new table; empty for indexes attached without them.
    options: dict = field(default_factory=dict)

    def covers(self, query: RangeQuery) -> bool:
        """Whether every query attribute is indexed by this index."""
        return set(query.attributes) <= set(self.attributes)


@dataclass(frozen=True, slots=True, eq=False)
class Segment:
    """One row range: its first row id, its rows and the indexes over them.

    ``indexes`` maps names to entries in attachment order; every segment of
    a database holds the same names, kinds and options.  ``statistics``
    (the table's exact histograms) is computed when not given.
    """

    start: int
    table: IncompleteTable
    indexes: Mapping[str, AttachedIndex] = field(default_factory=dict)
    statistics: TableStatistics | None = None

    def __post_init__(self):
        if self.statistics is None:
            object.__setattr__(self, "statistics", TableStatistics(self.table))

    @property
    def num_records(self) -> int:
        """Rows in this segment."""
        return self.table.num_records

    def build(
        self, name: str, kind: str, attributes=None, options=None
    ) -> AttachedIndex:
        """A new ``kind`` index over this segment's rows (not attached)."""
        attrs = (
            tuple(attributes) if attributes is not None
            else self.table.schema.names
        )
        options = dict(options or {})
        index = _BUILDERS[kind](self.table, list(attrs), **options)
        return AttachedIndex(name, kind, index, attrs, options)

    def attach(
        self, name: str, kind: str, index, attributes=None, options=None
    ) -> AttachedIndex:
        """An entry for a built ``index`` over this segment's rows.

        An index whose record count disagrees with the rows is refused: a
        loaded index file that covers the wrong number of rows would
        otherwise answer with silently wrong record ids.
        """
        covered = getattr(index, "num_records", None)
        if covered is not None and covered != self.num_records:
            raise ReproError(
                f"index {name!r} covers {covered} records but the table "
                f"has {self.num_records}; it was built over a different "
                f"table"
            )
        attrs = (
            tuple(attributes) if attributes is not None
            else tuple(getattr(index, "attributes", self.table.schema.names))
        )
        return AttachedIndex(name, kind, index, attrs, dict(options or {}))

    def with_index(self, attached: AttachedIndex) -> "Segment":
        """This segment with ``attached`` added (or replacing its name)."""
        return replace(
            self, indexes={**self.indexes, attached.name: attached}
        )

    def without_index(self, name: str) -> "Segment":
        """This segment without the index ``name``."""
        return replace(self, indexes={
            key: value for key, value in self.indexes.items() if key != name
        })

    def over(self, table: IncompleteTable) -> "Segment":
        """A segment over ``table`` with each of these indexes built afresh.

        Each index keeps its kind, attributes and options.
        """
        fresh = Segment(self.start, table)
        return replace(fresh, indexes={
            name: fresh.build(name, spec.kind, spec.attributes, spec.options)
            for name, spec in self.indexes.items()
        })


def join_index(
    segments: Sequence[Segment], table: IncompleteTable, name: str
) -> AttachedIndex:
    """Index ``name`` over the joined ``table``, from the segments' parts.

    A bitmap index joins its parts' slots on each slot's first read (a
    plain copy where segments are cut on 31-row group boundaries, a shift
    at the seams a delete leaves); a VA-file concatenates its codes
    unless its segments quantize differently.  Anything else is built over
    ``table``.
    """
    spec = segments[0].indexes[name]
    parts = [segment.indexes[name].index for segment in segments]
    index = None
    if isinstance(spec.index, BitmapIndex):
        index = type(spec.index).join(parts)
    elif isinstance(spec.index, VAFile):
        index = VAFile.join(parts, table)
    if index is None:
        index = _BUILDERS[spec.kind](
            table, list(spec.attributes), **spec.options
        )
    return replace(spec, index=index)


class ZoneMaps:
    """Every segment's exact value histograms, as per-attribute prefix sums.

    ``prefix[name][k, v]`` counts segment *k*'s rows whose code is below
    ``v`` (code 0 is missing), so one query attribute checks every segment
    in a few array operations.
    """

    def __init__(self, statistics: Sequence[TableStatistics]):
        self._statistics = statistics
        self._prefix: dict[str, np.ndarray] = {}

    def _sums(self, name: str) -> np.ndarray | None:
        prefix = self._prefix.get(name)
        if prefix is None:
            try:
                counts = np.stack([
                    stats.attribute(name).counts for stats in self._statistics
                ])
            except Exception:
                return None
            prefix = np.zeros((counts.shape[0], counts.shape[1] + 1), np.int64)
            np.cumsum(counts, axis=1, out=prefix[:, 1:])
            self._prefix[name] = prefix
        return prefix

    def alive(self, query: RangeQuery, semantics: MissingSemantics) -> np.ndarray:
        """Per segment: can it hold a match (under the widest bound)?

        A segment is ruled out when, for some query attribute, it holds no
        row inside the interval (nor a missing one under
        ``missing-is-a-match``).  Unknown attributes and out-of-domain
        intervals rule nothing out, so an invalid query raises exactly as
        it would unpruned.
        """
        alive = np.ones(len(self._statistics), dtype=bool)
        for name, interval in query.items():
            prefix = self._sums(name)
            if prefix is None or interval.lo < 1 or interval.hi + 2 > prefix.shape[1]:
                continue
            possible = prefix[:, interval.hi + 1] - prefix[:, interval.lo]
            if semantics is MissingSemantics.IS_MATCH:
                possible = possible + prefix[:, 1]
            alive &= possible > 0
        return alive
