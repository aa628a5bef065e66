"""Sharded scaling driver: query latency and pruning vs segment count.

Not a figure from the paper — this measures the :mod:`repro.shard`
subsystem the way the paper's Figure 4 measures single-index query time.
The workload follows the Table 7 recipe (uniform values, per-attribute
missing fractions) with one twist that matters for sharding: the table is
sorted by its leading attribute (:func:`repro.dataset.reorder`), so
contiguous segments each cover a narrow slice of that attribute's domain
and the exact per-segment histograms let a query read only the row window
of the segments that can match.

Reported per segment count (each row is labelled by it), under both
missing semantics:

* ``sharded_ms`` — wall-clock for the whole workload through
  :meth:`ShardedDatabase.execute` (median of the timing rounds),
* ``speedup`` — the common 1-segment baseline time over this
  configuration's time (median of the rounds' ratios; the baseline and
  every configuration are timed in interleaved rounds),
* ``pruned_frac`` — fraction of (query, segment) pairs skipped by pruning,
* ``identical`` — whether every sharded result was bit-identical to the
  unsharded :class:`IncompleteDatabase` (verified in-driver, both
  semantics).

Every query runs once on the engine the segments are read as, so the
row window is where the speedup comes from.
"""

from __future__ import annotations

import contextlib
import statistics

import numpy as np

from repro.core.engine import IncompleteDatabase
from repro.dataset.reorder import lexicographic_order
from repro.dataset.synthetic import generate_uniform_table
from repro.experiments.harness import ExperimentResult, time_batch
from repro.query.model import MissingSemantics, RangeQuery
from repro.shard.sharded import ShardedDatabase


#: Interleaved timing rounds of the baseline and every row.
_ROUNDS = 5


def _workload(num_queries: int, seed: int = 7) -> list[RangeQuery]:
    """Narrow ranges on the clustered attribute, wider on the others."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(num_queries):
        lo = int(rng.integers(1, 99))
        hi = min(100, lo + int(rng.integers(0, 3)))
        lo2 = int(rng.integers(1, 40))
        hi2 = min(50, lo2 + int(rng.integers(5, 25)))
        lo3 = int(rng.integers(1, 15))
        hi3 = min(20, lo3 + int(rng.integers(2, 10)))
        queries.append(
            RangeQuery.from_bounds(
                {"a": (lo, hi), "b": (lo2, hi2), "c": (lo3, hi3)}
            )
        )
    return queries


def run_fig4_sharded(
    num_records: int = 300_000,
    num_queries: int = 50,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    repeats: int = 3,
) -> ExperimentResult:
    """Sweep shard counts over a clustered workload."""
    table = generate_uniform_table(
        num_records,
        {"a": 100, "b": 50, "c": 20},
        {"a": 0.1, "b": 0.2, "c": 0.3},
        seed=2006,
    )
    table = table.take(lexicographic_order(table, ["a"]))
    queries = _workload(num_queries)

    unsharded = IncompleteDatabase(table)
    unsharded.create_index("ix", "bre")
    expected = {
        semantics: [unsharded.execute(q, semantics) for q in queries]
        for semantics in MissingSemantics
    }

    result = ExperimentResult(
        title=(
            f"Sharded scaling (row ranges): {num_records} records, "
            f"{num_queries} queries, both semantics"
        ),
        x_label="segments",
        columns=["sharded_ms", "speedup", "pruned_frac", "identical"],
    )

    def _check(db: ShardedDatabase, num_shards: int) -> tuple:
        """``(pruned fraction, identical)`` over the workload."""
        db.create_index("ix", "bre")
        identical = True
        pruned = 0
        for semantics in MissingSemantics:
            for query, exp in zip(queries, expected[semantics]):
                report = db.execute(query, semantics)
                if not np.array_equal(report.record_ids, exp.record_ids):
                    identical = False
                pruned += report.num_pruned
        return pruned / (2 * len(queries) * num_shards), identical

    def _time_ms(db: ShardedDatabase) -> float:
        return sum(
            time_batch(
                lambda s=semantics: [db.execute(q, s) for q in queries],
                repeats=repeats,
            )
            for semantics in MissingSemantics
        )

    # Common baseline: one segment, measured apart from the sweep's own
    # one-segment row, so the speedup column means the same thing on every
    # row.  Baseline and rows are timed in interleaved rounds; a row's
    # speedup is the median of its rounds' ratios.
    with contextlib.ExitStack() as stack:
        baseline = stack.enter_context(ShardedDatabase(table, num_shards=1))
        _check(baseline, 1)
        dbs = {
            n: stack.enter_context(ShardedDatabase(table, num_shards=n))
            for n in shard_counts
        }
        checks = {n: _check(db, n) for n, db in dbs.items()}
        base_ms, times = [], {n: [] for n in dbs}
        for _ in range(_ROUNDS):
            base_ms.append(_time_ms(baseline))
            for n, db in dbs.items():
                times[n].append(_time_ms(db))
    for num_shards, rows_ms in times.items():
        pruned_frac, identical = checks[num_shards]
        result.add_row(
            num_shards,
            round(statistics.median(rows_ms), 2),
            round(statistics.median(
                base / ms for base, ms in zip(base_ms, rows_ms)
            ), 2),
            round(pruned_frac, 3),
            identical,
        )
    result.notes.append(
        "speedup is 1-segment time / configuration time; table "
        "sorted by 'a' so row-range segments are prunable via exact "
        "histograms"
    )
    result.notes.append(
        "identical=True means every sharded result matched the unsharded "
        "engine bit for bit under both missing semantics"
    )
    return result
