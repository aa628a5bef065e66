"""The plan memo: one entry per item, oldest out first, sized for a working set."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.engine import IncompleteDatabase
from repro.core.planner import CostEstimate
from repro.dataset.synthetic import generate_uniform_table
from repro.observability import use_registry
from repro.query.ground_truth import evaluate
from repro.query.model import MissingSemantics, RangeQuery
from repro.shard import ShardedDatabase

SEMANTICS = (MissingSemantics.IS_MATCH, MissingSemantics.NOT_MATCH)


@pytest.fixture(scope="module")
def table():
    return generate_uniform_table(
        3000, {"a": 100, "b": 20}, {"a": 0.1, "b": 0.2}, seed=3
    )


def _queries(count: int | None = None) -> list[RangeQuery]:
    """Distinct two-attribute queries, in a fixed order."""
    queries = [
        RangeQuery.from_bounds({"a": (lo, lo + width), "b": (b, b + 2)})
        for width in range(8)
        for lo in range(1, 101 - width)
        for b in (1, 2)
    ]
    return queries if count is None else queries[:count]


def _database(table, num_shards: int | None = None):
    """An engine, or a sharded database of ``num_shards``, with BRE and VA."""
    db = (
        IncompleteDatabase(table) if num_shards is None
        else ShardedDatabase(table, num_shards=num_shards)
    )
    db.create_index("bre", "bre")
    db.create_index("va", "vafile")
    return db


def _counters(run) -> dict:
    with use_registry() as registry:
        run()
    return registry.snapshot().counters


def _rankings(run) -> int:
    return _counters(run).get("planner.rankings", 0)


def test_a_second_pass_over_the_working_set_ranks_almost_nothing(table):
    """More distinct items than the old memo held plan once each."""
    queries = _queries()
    items = len(queries) * 3
    assert items > 4096
    with _database(table, num_shards=4) as db:

        def one_pass():
            for semantics in ("is_match", "not_match", "both"):
                for start in range(0, len(queries), 64):
                    db.execute_batch(queries[start:start + 64], semantics)

        first = _counters(one_pass)
        second = _counters(one_pass)
    assert first["planner.rankings"] == items
    assert second["engine.queries"] == items
    assert second.get("planner.rankings", 0) <= 0.10 * items


def test_the_oldest_entry_is_evicted_first(table, monkeypatch):
    monkeypatch.setattr(engine_module, "_PLAN_MEMO_LIMIT", 8)
    db = _database(table)
    queries = _queries(9)
    for query in queries[:8]:
        db.execute(query)
    assert len(db._plan_memo) == 8
    db.execute(queries[8])
    assert len(db._plan_memo) == 8
    assert db._plan_memo.get((queries[0], MissingSemantics.IS_MATCH, None)) is None
    # The most recently planned items still hit ...
    assert _rankings(lambda: [db.execute(q) for q in queries[2:9]]) == 0
    # ... and the evicted one is planned again, evicting the next oldest.
    assert _rankings(lambda: db.execute(queries[0])) == 1
    assert db._plan_memo.get((queries[1], MissingSemantics.IS_MATCH, None)) is None
    assert len(db._plan_memo) == 8


@pytest.mark.parametrize("num_shards", [None, 4])
def test_one_entry_per_item_semantics_and_using(table, num_shards):
    db = _database(table, num_shards)
    query = _queries(1)[0]
    db.execute(query)
    db.query(query)
    db.execute_batch([query, query])
    db.choose_index(query)
    db.explain(query)
    assert len(db._plan_memo) == 1
    db.execute(query, using="bre")
    db.execute(query, "not_match")
    db.execute_batch([query], "not_match")
    assert len(db._plan_memo) == 3
    chosen, forced, estimate, _ = db._plan_memo.get(
        (query, MissingSemantics.IS_MATCH, None)
    )
    assert chosen.name == db.choose_index(query).name
    assert forced is False
    # The entry keeps the chosen plan's numbers, not the ranking.
    assert isinstance(estimate, CostEstimate)
    assert estimate.index_name == chosen.name


@pytest.mark.parametrize("num_shards", [None, 4])
def test_choose_index_and_explain_match_a_fresh_database(
    table, num_shards, unit_costs, monkeypatch
):
    monkeypatch.setattr(engine_module, "_PLAN_MEMO_LIMIT", 16)
    queries = _queries(40)
    used, fresh = _database(table, num_shards), _database(table, num_shards)
    for semantics in SEMANTICS:
        for query in queries:
            used.execute(query, semantics)
    for semantics in SEMANTICS:
        for query in queries[::7]:
            assert (
                used.choose_index(query, semantics).name
                == fresh.choose_index(query, semantics).name
            )
            assert used.explain(query, semantics) == fresh.explain(
                query, semantics
            )


def test_threads_evicting_at_once_raise_nothing_and_answer_right(
    table, monkeypatch
):
    monkeypatch.setattr(engine_module, "_PLAN_MEMO_LIMIT", 32)
    db = _database(table)
    queries = _queries(160)
    expected = {
        (position, semantics): evaluate(table, query, semantics)
        for position, query in enumerate(queries)
        for semantics in SEMANTICS
    }
    errors: list[BaseException] = []
    wrong: list[tuple] = []
    start = threading.Barrier(4)

    def reader(offset: int) -> None:
        try:
            start.wait()
            for step in range(len(queries)):
                position = (offset * 40 + step) % len(queries)
                semantics = SEMANTICS[(offset + step) % 2]
                got = db.execute(queries[position], semantics).record_ids
                if not np.array_equal(got, expected[position, semantics]):
                    wrong.append((position, semantics))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=(k,)) for k in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert wrong == []
    assert len(db._plan_memo) <= 32
