"""Cutting a table into row-range segments.

A database is an ordered tuple of segments
(:class:`~repro.core.engine.IncompleteDatabase`, :mod:`repro.core.segment`);
:func:`_row_ranges` is the one layout they are cut in, used by
:class:`ShardedDatabase` and by the snapshot writer's ``compact``.
"""

from __future__ import annotations

import numpy as np

from repro.bitvector.wah import GROUP_BITS
from repro.core.engine import IncompleteDatabase
from repro.core.segment import Segment
from repro.dataset.table import IncompleteTable
from repro.errors import ShardError

__all__ = ["ShardedDatabase"]


def _row_ranges(num_records: int, num_shards: int) -> list[range]:
    """The one layout: consecutive row ranges cut on 31-row group bounds.

    The table's 31-row WAH groups are split ``np.array_split``-style (the
    first ``groups % num_shards`` segments hold one group more) and the
    last segment ends at the last row, so every segment but the last
    holds whole groups and joined bitmaps concatenate without a shift.
    A table with fewer groups than segments is cut row by row instead.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    if num_records and num_shards > num_records:
        raise ShardError(
            f"cannot split {num_records} records into {num_shards} "
            f"non-empty shards"
        )
    groups = -(-num_records // GROUP_BITS)
    unit, units = (GROUP_BITS, groups) if num_shards <= groups else (1, num_records)
    size, extra = divmod(units, num_shards)
    bounds = [
        min(num_records, (k * size + min(k, extra)) * unit)
        for k in range(num_shards + 1)
    ]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _check_executor(executor) -> None:
    """Accept only ``None`` and ``"sequential"`` for ``executor=``."""
    if executor is not None and executor != "sequential":
        raise ShardError(
            f"unknown shard executor {executor!r}; expected 'sequential' "
            f"or None (the same)"
        )


class ShardedDatabase(IncompleteDatabase):
    """An :class:`IncompleteDatabase` whose table is cut into ``num_shards``
    consecutive row ranges (:func:`_row_ranges`), each a segment over a
    copy of its rows.

    The name and ``executor=`` are kept only because the benchmark
    harness builds its databases through them; they go in a
    benchmark-only change.  ``executor`` is ``None`` or ``"sequential"``
    and selects nothing; anything else raises
    :class:`~repro.errors.ShardError`.
    """

    def __init__(
        self,
        table: IncompleteTable,
        num_shards: int = 4,
        executor: str | None = None,
    ):
        _check_executor(executor)
        self._init_segments([
            Segment(rows.start, table.take(np.arange(rows.start, rows.stop)))
            for rows in _row_ranges(table.num_records, num_shards)
        ])
