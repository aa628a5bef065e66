"""CI smoke check for the sharded (segment) subsystem.

Runs a mixed workload through :class:`~repro.shard.ShardedDatabase` at
1, 2, 4 and 7 shards, under both missing-data semantics, via both
``execute`` and ``execute_batch``, and fails loudly if

* any sharded result diverges from the unsharded engine's (it must be
  bit-identical), or
* at any shard count the run's ``engine.queries`` differs from its number
  of queries — every query must run exactly once, on the one engine the
  segments are read as (a per-segment fan-out would count once per
  segment).

Usage (what ``.github/workflows/ci.yml`` runs)::

    PYTHONPATH=src python -m repro.experiments.shard_smoke
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.engine import IncompleteDatabase
from repro.dataset.reorder import lexicographic_order
from repro.dataset.synthetic import generate_uniform_table
from repro.observability import use_registry
from repro.query.model import MissingSemantics, RangeQuery
from repro.shard.sharded import ShardedDatabase

#: Shard counts the smoke run sweeps (7 does not divide the table evenly).
SHARD_COUNTS = (1, 2, 4, 7)


def _workload(seed: int, num_queries: int) -> list[RangeQuery]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(num_queries):
        lo = int(rng.integers(1, 28))
        hi = min(30, lo + int(rng.integers(0, 4)))
        lo2 = int(rng.integers(1, 10))
        hi2 = min(12, lo2 + int(rng.integers(0, 6)))
        queries.append(RangeQuery.from_bounds({"a": (lo, hi), "b": (lo2, hi2)}))
    return queries


def _divergences(db, label: str, queries, expected) -> int:
    """Run the workload both ways; report and count every mismatch."""
    failures = 0
    for semantics in MissingSemantics:
        answers = {
            "execute": [db.execute(q, semantics) for q in queries],
            "execute_batch": db.execute_batch(queries, semantics),
        }
        for entry, reports in answers.items():
            for position, (exp, got) in enumerate(
                zip(expected[semantics], reports)
            ):
                if not np.array_equal(got.record_ids, exp.record_ids):
                    failures += 1
                    print(
                        f"FAIL: {label} {entry}, query {position} under "
                        f"{semantics.value}: sharded {got.num_matches} "
                        f"ids, unsharded {exp.num_matches}",
                        file=sys.stderr,
                    )
    return failures


def main(argv: list[str] | None = None) -> int:
    table = generate_uniform_table(
        12_000, {"a": 30, "b": 12}, {"a": 0.1, "b": 0.25}, seed=2006
    )
    table = table.take(lexicographic_order(table, ["a"]))
    queries = _workload(seed=17, num_queries=24)

    unsharded = IncompleteDatabase(table)
    unsharded.create_index("ix", "bre")
    expected = {
        semantics: [unsharded.execute(q, semantics) for q in queries]
        for semantics in MissingSemantics
    }

    failures = 0
    items = 2 * len(queries) * len(MissingSemantics)
    for num_shards in SHARD_COUNTS:
        with use_registry() as registry, ShardedDatabase(
            table, num_shards=num_shards
        ) as db:
            db.create_index("ix", "bre")
            failures += _divergences(
                db, f"{num_shards} shards", queries, expected
            )
        counters = registry.snapshot().counters
        evaluated = counters.get("engine.queries", 0)
        print(
            f"shard smoke ({num_shards} shards): {items} queries, "
            f"{evaluated} engine evaluations, "
            f"{counters.get('shard.fanout_tasks', 0)} segments read, "
            f"{counters.get('shard.pruned', 0)} skipped"
        )
        if evaluated != items:
            failures += 1
            print(
                f"FAIL: {num_shards} shards: {evaluated} engine evaluations "
                f"for {items} queries — each query must run once",
                file=sys.stderr,
            )
    if failures:
        print(f"shard smoke FAILED ({failures} problem(s))", file=sys.stderr)
        return 1
    print("shard smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
