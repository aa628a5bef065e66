"""CI smoke check for the batch executor and sub-result cache.

Runs a repeated-interval workload through ``execute_batch`` under all
three semantics (``is_match``, ``not_match`` and the one-pass ``both``),
on an engine and on ``ShardedDatabase(table, num_shards=4)``, and fails
loudly if

* any batch report — its index, kind and the id arrays of every bound the
  semantics asks for — differs from the engine's one-by-one ``execute``,
  or
* either tier's ``cache_stats()`` records zero hits — a repeated-interval
  workload through a bitmap index must hit, so zero means the cache path
  silently stopped being exercised.

Usage (what ``.github/workflows/ci.yml`` runs)::

    PYTHONPATH=src python -m repro.experiments.batch_smoke
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.query.model import RangeQuery
from repro.shard.sharded import ShardedDatabase

SEMANTICS = ("is_match", "not_match", "both")


def _workload(seed: int, pool_size: int, num_queries: int) -> list[RangeQuery]:
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(pool_size):
        mid_lo = int(rng.integers(1, 10))
        high_lo = int(rng.integers(1, 50))
        pool.append(
            RangeQuery.from_bounds({
                "mid": (mid_lo, int(rng.integers(mid_lo, 13))),
                "high": (high_lo, int(rng.integers(high_lo, 65))),
            })
        )
    return [pool[i] for i in rng.integers(0, pool_size, num_queries)]


def main(argv: list[str] | None = None) -> int:
    table = generate_uniform_table(
        20_000,
        {"low": 4, "mid": 12, "high": 64},
        {"low": 0.3, "mid": 0.1, "high": 0.0},
        seed=2006,
    )
    engine = IncompleteDatabase(table)
    sharded = ShardedDatabase(table, num_shards=4)
    for db in (engine, sharded):
        db.create_index("bre", "bre", ["mid", "high"])
        db.create_index("bee", "bee", ["low", "mid"])
    queries = _workload(seed=327, pool_size=6, num_queries=60)

    failures = 0
    for semantics in SEMANTICS:
        expected = [engine.execute(q, semantics) for q in queries]
        for tier, db in (("engine", engine), ("4 shards", sharded)):
            reports = db.execute_batch(queries, semantics)
            for position, (exp, got) in enumerate(zip(expected, reports)):
                if (got.index_name, got.kind) != (exp.index_name, exp.kind) or (
                    len(exp.bound_ids) != len(got.bound_ids)
                ) or not all(
                    np.array_equal(e, g)
                    for e, g in zip(exp.bound_ids, got.bound_ids)
                ):
                    failures += 1
                    print(
                        f"FAIL: {tier}, query {position} under {semantics}: "
                        f"batch returned {got.index_name} with "
                        f"{[len(g) for g in got.bound_ids]} ids per bound, "
                        f"the engine {exp.index_name} with "
                        f"{[len(e) for e in exp.bound_ids]}",
                        file=sys.stderr,
                    )

    for tier, db in (("engine", engine), ("4 shards", sharded)):
        stats = db.cache_stats()
        print(
            f"batch smoke ({tier}): {len(queries)} queries x "
            f"{len(SEMANTICS)} semantics; cache {stats.hits} hits / "
            f"{stats.misses} misses (hit rate {stats.hit_rate:.0%})"
        )
        if stats.hits == 0:
            failures += 1
            print(
                f"FAIL: {tier}: sub-result cache recorded zero hits on a "
                "repeated-interval workload",
                file=sys.stderr,
            )
    sharded.close()
    if failures:
        print(f"batch smoke FAILED ({failures} problem(s))", file=sys.stderr)
        return 1
    print("batch smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
