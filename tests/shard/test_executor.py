"""Tests for the executor handle a sharded database holds.

Covers resolution (``None`` / ``"sequential"`` / an instance; everything
the deleted ``processes`` backend took is rejected), custom subclass
instances, and the database lifecycle around the executor (double-close,
use-after-close, GC finalizer).
"""

import gc

import numpy as np

import pytest

from repro import observability as obs
from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import ShardError
from repro.query.boolean import Not, from_range_query
from repro.query.model import MissingSemantics, RangeQuery
from repro.shard.executor import (
    SequentialShardExecutor,
    ShardExecutor,
    resolve_executor,
)
from repro.shard.manifest import load_sharded, save_sharded
from repro.shard.sharded import ShardedDatabase


def _table(n=900, seed=11):
    return generate_uniform_table(
        n, {"a": 10, "b": 5}, {"a": 0.2, "b": 0.1}, seed=seed
    )


QUERIES = [
    RangeQuery.from_bounds({"a": (2, 8)}),
    RangeQuery.from_bounds({"a": (1, 3), "b": (2, 4)}),
    RangeQuery.from_bounds({"b": (1, 1)}),
]


# -- lifecycle bugfixes --------------------------------------------------------


class TestMaxWorkersValidation:
    def test_engine_batch_rejects(self):
        # The engine's batch thread pool is gone; so are its two keywords.
        db = IncompleteDatabase(_table(200))
        db.create_index("ix", "bre")
        for removed in ("max_workers", "parallel"):
            with pytest.raises(TypeError, match=removed):
                db.execute_batch(
                    QUERIES, MissingSemantics.IS_MATCH, **{removed: 1}
                )


class TestCloseLifecycle:
    def test_double_close_raises(self):
        db = ShardedDatabase(_table(200), num_shards=2)
        db.close()
        with pytest.raises(ShardError, match="already been closed"):
            db.close()

    def test_use_after_close_raises(self):
        db = ShardedDatabase(_table(200), num_shards=2)
        db.create_index("ix", "bre")
        db.close()
        with pytest.raises(ShardError, match="closed"):
            db.execute(QUERIES[0])
        with pytest.raises(ShardError, match="closed"):
            db.execute_batch(QUERIES)
        with pytest.raises(ShardError, match="closed"):
            db.create_index("other", "bee")
        with pytest.raises(ShardError, match="closed"):
            db.drop_index("ix")

    def test_context_manager_composes_with_early_close(self):
        with ShardedDatabase(_table(200), num_shards=2) as db:
            db.close()  # __exit__ must not close a second time

    def test_executor_close_is_idempotent(self):
        executor = SequentialShardExecutor()
        executor.close()
        executor.close()

    def test_finalizer_closes_executor_when_database_dropped(self):
        """Dropping the database without close() must still close it."""

        class Closable(SequentialShardExecutor):
            closed = False

            def close(self):
                self.closed = True

        executor = Closable()
        db = ShardedDatabase(_table(200), num_shards=2, executor=executor)
        db.create_index("ix", "bre")
        db.execute(QUERIES[0])
        assert not executor.closed
        del db
        gc.collect()
        assert executor.closed

    def test_explicit_close_detaches_finalizer(self):
        db = ShardedDatabase(_table(200), num_shards=2)
        finalizer = db._finalizer
        db.close()
        assert not finalizer.alive


# -- resolution ----------------------------------------------------------------


class TestResolveExecutor:
    def test_instance_passes_through(self):
        executor = SequentialShardExecutor()
        assert resolve_executor(executor) is executor

    def test_names_resolve(self):
        assert isinstance(
            resolve_executor("sequential"), SequentialShardExecutor
        )

    def test_default_is_inline(self):
        assert isinstance(resolve_executor(), SequentialShardExecutor)

    def test_databases_default_to_inline(self, tmp_path):
        with ShardedDatabase(_table(), num_shards=3) as db:
            db.create_index("ix", "bre")
            assert db.executor.name == "sequential"
            save_sharded(db, tmp_path)
            with obs.use_registry() as registry:
                db.execute(QUERIES[0])
                db.execute_batch(QUERIES)
            counters = registry.snapshot().counters
            # Inline: every query ran once, on the caller's thread.
            assert counters["engine.queries"] == 1 + len(QUERIES)
        with load_sharded(tmp_path) as loaded:
            assert loaded.executor.name == "sequential"

    def test_databases_keep_explicit_choices(self, tmp_path):
        table = _table()
        with ShardedDatabase(
            table, num_shards=2, executor="sequential"
        ) as db:
            assert db.executor.name == "sequential"
            db.create_index("ix", "bre")
            save_sharded(db, tmp_path)
        with load_sharded(tmp_path, executor="sequential") as loaded:
            assert loaded.executor.name == "sequential"
        mine = SequentialShardExecutor()
        with ShardedDatabase(table, num_shards=2, executor=mine) as db:
            assert db.executor is mine
        mine = SequentialShardExecutor()
        with load_sharded(tmp_path, executor=mine) as loaded:
            assert loaded.executor is mine

    def test_removed_selectors_are_rejected(self, monkeypatch, tmp_path):
        for removed in ("threads", "processes"):
            with pytest.raises(
                ShardError, match="unknown shard executor.*'sequential'"
            ):
                resolve_executor(removed)
            with pytest.raises(ShardError, match="'sequential'"):
                ShardedDatabase(_table(200), num_shards=2, executor=removed)
        with pytest.raises(TypeError, match="parallel"):
            ShardedDatabase(_table(200), num_shards=2, parallel=True)
        with pytest.raises(TypeError, match="max_workers"):
            ShardedDatabase(_table(200), num_shards=2, max_workers=2)
        # Shards are row ranges: no layout is selectable either.
        for partitioner in ("contiguous", "round-robin"):
            with pytest.raises(TypeError, match="partitioner"):
                ShardedDatabase(
                    _table(200), num_shards=2, partitioner=partitioner
                )
        with ShardedDatabase(_table(200), num_shards=2) as db:
            db.create_index("ix", "bre")
            save_sharded(db, tmp_path)
        with pytest.raises(TypeError, match="max_workers"):
            load_sharded(tmp_path, max_workers=2)
        # The environment no longer selects anything.
        monkeypatch.setenv("REPRO_SHARD_EXECUTOR", "processes")
        assert isinstance(resolve_executor(), SequentialShardExecutor)
        with ShardedDatabase(_table(200), num_shards=2) as db:
            assert isinstance(db.executor, SequentialShardExecutor)
        with load_sharded(tmp_path) as loaded:
            assert isinstance(loaded.executor, SequentialShardExecutor)

    def test_unknown_name_raises(self):
        with pytest.raises(ShardError, match="unknown shard executor"):
            resolve_executor("carrier-pigeons")

    def test_custom_executor_subclass(self):
        """A subclass instance is held, named and closed with the database;
        every entry point answers through it as without it."""

        class Recorder(SequentialShardExecutor):
            name = "recorder"
            closed = False

            def close(self):
                self.closed = True

        recorder = Recorder()
        table = _table(200)
        engine = IncompleteDatabase(table)
        engine.create_index("ix", "bre")
        predicate = Not(from_range_query(QUERIES[0]))
        with ShardedDatabase(table, num_shards=2, executor=recorder) as db:
            db.create_index("ix", "bre")
            assert db.executor is recorder
            assert "2 shards" in db.summary()
            got = [db.execute(QUERIES[0]), *db.execute_batch(QUERIES),
                   db.query_predicate(predicate)]
            want = [engine.execute(QUERIES[0]),
                    *engine.execute_batch(QUERIES),
                    engine.query_predicate(predicate)]
            for mine, theirs in zip(got, want):
                assert np.array_equal(mine.record_ids, theirs.record_ids)
            assert not recorder.closed
        assert recorder.closed
        assert isinstance(recorder, ShardExecutor)
