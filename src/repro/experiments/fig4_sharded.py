"""Sharded scaling driver: query latency and skew vs shard count.

Not a figure from the paper — this measures the :mod:`repro.shard`
subsystem the way the paper's Figure 4 measures single-index query time.
The workload follows the Table 7 recipe (uniform values, per-attribute
missing fractions) with one twist that matters for sharding: the table is
sorted by its leading attribute (:func:`repro.dataset.reorder`), so
contiguous shards each cover a narrow slice of that attribute's domain and
the sharded planner's exact histogram pruning can skip shards outright.

Reported per shard count (rows are labelled ``sequential/<shards>``, the
one fan-out executor of :mod:`repro.shard.executor`), under both missing
semantics:

* ``sharded_ms`` — wall-clock for the whole workload through
  :meth:`ShardedDatabase.execute`,
* ``speedup`` — the common 1-shard baseline time over this
  configuration's time,
* ``pruned_frac`` — fraction of (query, shard) pairs skipped by pruning,
* ``skew`` — mean max-over-mean executed-shard latency ratio,
* ``identical`` — whether every sharded result was bit-identical to the
  unsharded :class:`IncompleteDatabase` (verified in-driver, both
  semantics).

Every shard task runs inline, so pruning is where the speedup comes from.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import IncompleteDatabase
from repro.dataset.reorder import lexicographic_order
from repro.dataset.synthetic import generate_uniform_table
from repro.experiments.harness import ExperimentResult, time_batch
from repro.query.model import MissingSemantics, RangeQuery
from repro.shard.sharded import ShardedDatabase


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
        x_label="executor/shards",
        columns=[
            "sharded_ms", "speedup", "pruned_frac", "skew", "identical",
        ],
    )

    def _measure(db: ShardedDatabase, num_shards: int) -> tuple:
        db.create_index("ix", "bre")
        identical = True
        pruned = 0
        skews = []
        for semantics in MissingSemantics:
            for query, exp in zip(queries, expected[semantics]):
                report = db.execute(query, semantics)
                if not np.array_equal(report.record_ids, exp.record_ids):
                    identical = False
                pruned += report.num_pruned
                skews.append(report.skew)
        total_ms = 0.0
        for semantics in MissingSemantics:
            total_ms += time_batch(
                lambda s=semantics: [db.execute(q, s) for q in queries],
                repeats=repeats,
            )
        pair_count = 2 * len(queries) * num_shards
        skew = float(np.mean([s for s in skews if s > 0]) if any(skews) else 0.0)
        return total_ms, pruned / pair_count, skew, identical

    # Common baseline: one shard, measured apart from the sweep's own
    # one-shard row, so the speedup column means the same thing on every row.
    with ShardedDatabase(table, num_shards=1) as db:
        baseline_ms, _, _, _ = _measure(db, 1)

    for num_shards in shard_counts:
        with ShardedDatabase(table, num_shards=num_shards) as db:
            total_ms, pruned_frac, skew, identical = _measure(db, num_shards)
        result.add_row(
            f"sequential/{num_shards}",
            round(total_ms, 2),
            round(baseline_ms / total_ms, 2),
            round(pruned_frac, 3),
            round(skew, 2),
            identical,
        )
    result.notes.append(
        "speedup is 1-shard time / configuration time; table "
        "sorted by 'a' so row-range shards are prunable via exact "
        "histograms"
    )
    result.notes.append(
        "identical=True means every sharded result matched the unsharded "
        "engine bit for bit under both missing semantics"
    )
    return result
