"""A grid file: the space-partitioning baseline (Section 1).

The paper argues that, like hierarchical indexes, "space partitioning
multi-dimensional indexing techniques would also suffer from the same
weaknesses in the presence of missing data. Records with missing data
values would get mapped to lesser-dimensioned spaces, and the full benefit
of data space partitioning would not be realized."

This grid file partitions each attribute's domain (including the sentinel
missing coordinate 0) into fixed-width strips, hashes every record to its
cell, and answers range queries by visiting all overlapping cells.  Under
missing-is-a-match semantics the usual ``2**k`` subspace expansion applies:
the sentinel strips concentrate records into lower-dimensional slabs, so
cells there are heavily overfull and the visit counts degrade exactly the
way the paper predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable

import numpy as np

from repro.dataset.table import IncompleteTable
from repro.errors import IndexBuildError, QueryError
from repro.query.model import MissingSemantics, RangeQuery


@dataclass
class GridQueryStats:
    """Work done by grid-file query executions."""

    #: Grid cells visited across all subqueries.
    cells_visited: int = 0
    #: Records inspected inside visited cells.
    records_inspected: int = 0
    #: Box subqueries issued (``2**k`` under missing-is-a-match).
    subqueries: int = 0
    #: Queries executed.
    queries: int = 0


class GridFileIndex:
    """Fixed-grid space-partitioning index over sentinel-completed points.

    Parameters
    ----------
    table:
        The table to index.
    attributes:
        Attributes forming the grid dimensions; defaults to all.
    strips_per_dim:
        Value strips per attribute (the sentinel 0 always gets its own
        strip, so an attribute contributes ``strips_per_dim + 1`` slices
        when it has missing data).
    """

    def __init__(
        self,
        table: IncompleteTable,
        attributes: Iterable[str] | None = None,
        strips_per_dim: int = 8,
    ):
        if attributes is None:
            attributes = table.schema.names
        self._names = list(attributes)
        if not self._names:
            raise IndexBuildError("grid file requires at least one attribute")
        if strips_per_dim < 1:
            raise IndexBuildError(
                f"strips_per_dim must be >= 1, got {strips_per_dim}"
            )
        self._strips = strips_per_dim
        self._cardinalities = {
            name: table.schema.cardinality(name) for name in self._names
        }
        self._has_missing = {
            name: bool(table.missing_mask(name).any()) for name in self._names
        }
        # Strip index per record per dimension: strip 0 is the sentinel.
        self._table = table
        self._cells: dict[tuple[int, ...], list[int]] = {}
        strip_indexes = np.column_stack(
            [self._strip_of(table.column(name), name) for name in self._names]
        )
        for record_id, key in enumerate(map(tuple, strip_indexes.tolist())):
            self._cells.setdefault(key, []).append(record_id)

    def _strip_of(self, values: np.ndarray, name: str) -> np.ndarray:
        """Strip index for coded values: 0 for missing, 1..strips otherwise."""
        cardinality = self._cardinalities[name]
        strips = min(self._strips, cardinality)
        values = values.astype(np.int64)  # a stored column is unsigned and narrow
        strip = (values - 1) * strips // cardinality + 1
        strip[values == 0] = 0
        return strip

    def _strip_range(self, name: str, lo: int, hi: int) -> range:
        cardinality = self._cardinalities[name]
        strips = min(self._strips, cardinality)
        lo_strip = (lo - 1) * strips // cardinality + 1
        hi_strip = (hi - 1) * strips // cardinality + 1
        return range(lo_strip, hi_strip + 1)

    @property
    def attributes(self) -> tuple[str, ...]:
        """Grid dimensions, in coordinate order."""
        return tuple(self._names)

    @property
    def num_cells(self) -> int:
        """Number of non-empty grid cells."""
        return len(self._cells)

    def occupancy(self) -> dict[tuple[int, ...], int]:
        """Record count per non-empty cell."""
        return {key: len(ids) for key, ids in self._cells.items()}

    def execute_ids(
        self,
        query: RangeQuery,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        stats: GridQueryStats | None = None,
    ) -> np.ndarray:
        """Exact sorted record ids, visiting every overlapping cell."""
        for name in query.attributes:
            if name not in self._cardinalities:
                raise QueryError(
                    f"attribute {name!r} is not a grid dimension"
                )
        axis_of = {name: axis for axis, name in enumerate(self._names)}
        query_axes = [
            axis_of[name]
            for name in query.attributes
            if self._has_missing[name]
        ]
        if semantics is MissingSemantics.NOT_MATCH:
            subsets: Iterable[tuple[int, ...]] = [()]
        else:
            subsets = (
                subset
                for r in range(len(query_axes) + 1)
                for subset in combinations(query_axes, r)
            )
        matches: list[int] = []
        cells_visited = 0
        records_inspected = 0
        subqueries = 0
        for subset in subsets:
            subqueries += 1
            per_axis_strips: list[range | list[int]] = []
            for axis, name in enumerate(self._names):
                if axis in subset:
                    per_axis_strips.append([0])
                elif name in query:
                    interval = query.interval(name)
                    per_axis_strips.append(
                        self._strip_range(name, interval.lo, interval.hi)
                    )
                else:
                    strips = min(self._strips, self._cardinalities[name])
                    full = list(range(0, strips + 1))
                    per_axis_strips.append(full)
            for key in product(*per_axis_strips):
                cell = self._cells.get(key)
                if cell is None:
                    continue
                cells_visited += 1
                records_inspected += len(cell)
                for record_id in cell:
                    if self._record_matches(record_id, query, subset, axis_of):
                        matches.append(record_id)
        if stats is not None:
            stats.cells_visited += cells_visited
            stats.records_inspected += records_inspected
            stats.subqueries += subqueries
            stats.queries += 1
        return np.unique(np.asarray(matches, dtype=np.int64))

    def _record_matches(
        self, record_id: int, query: RangeQuery, subset, axis_of
    ) -> bool:
        for name, interval in query.items():
            value = int(self._table.column(name)[record_id])
            axis = axis_of[name]
            if axis in subset:
                if value != 0:
                    return False
            else:
                if not (interval.lo <= value <= interval.hi):
                    return False
        return True
