"""CI smoke check for the sharded (segment) subsystem.

Runs a mixed workload through :class:`~repro.shard.ShardedDatabase` at
1, 2, 4 and 7 shards, under both missing-data semantics, via both
``execute`` and ``execute_batch``, and fails loudly if

* any sharded result diverges from the unsharded engine's (it must be
  bit-identical), or
* at any shard count the run's ``engine.queries`` differs from its number
  of queries — every query must run exactly once, on the one engine the
  segments are read as (a per-segment fan-out would count once per
  segment), or
* replaying the same queries a second time ranks plans for more than
  ``REPLAN_LIMIT`` of the items it evaluates (``planner.rankings``
  against ``engine.queries``): a repeated item must hit the plan memo, or
* after a warm 4-segment database takes an append through
  :class:`~repro.serve.SnapshotWriter`, replaying the queries on the new
  snapshot ranks plans for more than ``REPLAN_LIMIT`` of them (the
  snapshot starts with its predecessor's plans), or decodes more stored
  WAH words (``wah.words_decoded``) than the segments the append rebuilt
  hold (each joined bitmap copies the segments the append left alone).

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
from repro.serve import EpochManager, SnapshotWriter
from repro.shard.sharded import ShardedDatabase

#: Shard counts the smoke run sweeps (7 does not divide the table evenly).
SHARD_COUNTS = (1, 2, 4, 7)

#: The share of a replay's items that may be planned again.
REPLAN_LIMIT = 0.10

#: Rows the replay-after-a-write leg appends.
APPEND_ROWS = 500


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


def _replay_after_a_write(table, queries) -> int:
    """Warm 4 segments, append through the writer, replay; count problems."""
    rows = generate_uniform_table(
        APPEND_ROWS, {"a": 30, "b": 12}, {"a": 0.1, "b": 0.25}, seed=2007
    )
    db = ShardedDatabase(table, num_shards=4)
    db.create_index("ix", "bre")
    for semantics in MissingSemantics:
        for query in queries:
            db.execute(query, semantics)
    manager = EpochManager(db)
    try:
        SnapshotWriter(manager).append(rows)
        snapshot = manager.current_database
        engine = IncompleteDatabase(snapshot.table)
        engine.create_index("ix", "bre")
        expected = {
            semantics: [engine.execute(q, semantics) for q in queries]
            for semantics in MissingSemantics
        }
        with use_registry() as replay:
            failures = _divergences(
                snapshot, "4 shards, after an append", queries, expected
            )
        rebuilt = sum(
            vec.words32()
            for segment in snapshot.segments
            if not any(segment is old for old in db.segments)
            for vec in segment.indexes["ix"].index.stored_bitmaps()
        )
    finally:
        manager.close()
    counters = replay.snapshot().counters
    ranked = counters.get("planner.rankings", 0)
    evaluated = counters.get("engine.queries", 0)
    decoded = counters.get("wah.words_decoded", 0)
    print(
        f"shard smoke (4 shards, replayed after an append): {ranked} plans "
        f"ranked for {evaluated} evaluations, {decoded} WAH words decoded "
        f"(the rebuilt segments store {rebuilt})"
    )
    if ranked > REPLAN_LIMIT * evaluated:
        failures += 1
        print(
            f"FAIL: after an append, the replay ranked {ranked} plans for "
            f"{evaluated} evaluations (limit {REPLAN_LIMIT:.0%}) — a write "
            f"must carry its predecessor's plans",
            file=sys.stderr,
        )
    if decoded > rebuilt:
        failures += 1
        print(
            f"FAIL: after an append, the replay decoded {decoded} WAH "
            f"words, more than the {rebuilt} the rebuilt segments store — "
            f"a joined bitmap must copy the segments the write left alone",
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
        with ShardedDatabase(table, num_shards=num_shards) as db:
            db.create_index("ix", "bre")
            with use_registry() as registry:
                failures += _divergences(
                    db, f"{num_shards} shards", queries, expected
                )
            with use_registry() as replay:
                failures += _divergences(
                    db, f"{num_shards} shards, replayed", queries, expected
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
        replayed = replay.snapshot().counters
        replanned = replayed.get("planner.rankings", 0)
        reevaluated = replayed.get("engine.queries", 0)
        print(
            f"shard smoke ({num_shards} shards, replayed): {replanned} "
            f"plans ranked for {reevaluated} evaluations"
        )
        if replanned > REPLAN_LIMIT * reevaluated:
            failures += 1
            print(
                f"FAIL: {num_shards} shards: the replay ranked {replanned} "
                f"plans for {reevaluated} evaluations (limit "
                f"{REPLAN_LIMIT:.0%}) — repeated items must hit the plan memo",
                file=sys.stderr,
            )
    failures += _replay_after_a_write(table, queries)
    if failures:
        print(f"shard smoke FAILED ({failures} problem(s))", file=sys.stderr)
        return 1
    print("shard smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
