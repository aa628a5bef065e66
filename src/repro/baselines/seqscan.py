"""Sequential scan: the no-index baseline every technique must beat.

Evaluates queries by comparing every record's coded values directly, exactly
like the ground-truth oracle, but packaged as an index-like object with work
accounting so experiments can report it alongside the real techniques.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.table import IncompleteTable
from repro.query.ground_truth import evaluate_mask
from repro.query.model import MissingSemantics, RangeQuery


@dataclass
class ScanStats:
    """Work done by sequential-scan query executions."""

    #: Table cells compared (n per query dimension).
    cells_scanned: int = 0
    #: Queries executed.
    queries: int = 0


class SequentialScan:
    """Full-table scan execution over an incomplete table."""

    def __init__(self, table: IncompleteTable):
        self._table = table

    @property
    def num_records(self) -> int:
        """Number of records scanned per query dimension."""
        return self._table.num_records

    def window(self, start: int, stop: int) -> tuple["SequentialScan", int]:
        """A scan of rows ``[start, stop)`` only, and ``start``."""
        return SequentialScan(self._table.rows(start, stop)), start

    def execute_ids(
        self,
        query: RangeQuery,
        semantics: MissingSemantics = MissingSemantics.IS_MATCH,
        stats: ScanStats | None = None,
    ) -> np.ndarray:
        """Exact sorted record ids by direct column comparison."""
        mask = evaluate_mask(self._table, query, semantics)
        if stats is not None:
            stats.cells_scanned += self._table.num_records * query.dimensionality
            stats.queries += 1
        return np.flatnonzero(mask)
