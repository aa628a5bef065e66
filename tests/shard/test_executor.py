"""Tests for the pluggable shard-fanout executors.

Covers the equivalence property (``processes`` ≡ ``sequential`` under
``is_match``, ``not_match`` and ``both``, through ``execute``,
``execute_batch`` and ``query_predicate``), the executor-lifecycle bugfixes
(``max_workers=0`` rejection, double-close, use-after-close, GC finalizer),
and the
stale-worker fence that re-ships indexes to resident worker processes
after append/delete/compact generation bumps and create/drop epoch bumps.

Process-executor tests use the ``fork`` start method where possible —
spawn re-imports the test module per worker, which is much slower; one
dedicated test exercises ``spawn`` end to end.
"""

import gc
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.core.engine import IncompleteDatabase
from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable
from repro.errors import ShardError
from repro.query.boolean import Not, from_range_query
from repro.query.model import BOTH, Interval, MissingSemantics, RangeQuery
from repro.shard.executor import (
    EXECUTOR_ENV_VAR,
    ProcessShardExecutor,
    SequentialShardExecutor,
    ShardExecutor,
    resolve_executor,
)
from repro.shard.manifest import load_sharded, save_sharded
from repro.shard.partition import PARTITIONERS
from repro.shard.sharded import ShardedDatabase


def _table(n=900, seed=11):
    return generate_uniform_table(
        n, {"a": 10, "b": 5}, {"a": 0.2, "b": 0.1}, seed=seed
    )


#: Every request arity: the two single bounds and the one-pass pair.
ALL_SEMANTICS = (*MissingSemantics, BOTH)


def _same_ids(left, right) -> bool:
    return all(
        np.array_equal(a, b)
        for a, b in zip(left.bound_ids, right.bound_ids, strict=True)
    )


QUERIES = [
    RangeQuery.from_bounds({"a": (2, 8)}),
    RangeQuery.from_bounds({"a": (1, 3), "b": (2, 4)}),
    RangeQuery.from_bounds({"b": (1, 1)}),
]


# -- executor equivalence ------------------------------------------------------


@st.composite
def executor_cases(draw):
    n = draw(st.integers(min_value=7, max_value=60))
    card_a = draw(st.integers(min_value=2, max_value=8))
    card_b = draw(st.integers(min_value=2, max_value=8))
    columns = {}
    for name, cardinality in (("a", card_a), ("b", card_b)):
        columns[name] = np.array(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=cardinality),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int64,
        )
    schema = Schema([AttributeSpec("a", card_a), AttributeSpec("b", card_b)])
    table = IncompleteTable(schema, columns)

    def interval(cardinality):
        lo = draw(st.integers(min_value=1, max_value=cardinality))
        hi = draw(st.integers(min_value=lo, max_value=cardinality))
        return Interval(lo, hi)

    workload = [
        RangeQuery({"a": interval(card_a), "b": interval(card_b)})
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    partitioner = draw(st.sampled_from(sorted(PARTITIONERS)))
    num_shards = draw(st.sampled_from((1, 2, 7)))
    return table, workload, partitioner, num_shards


@settings(max_examples=8, deadline=None)
@given(case=executor_cases())
def test_process_sequential_equivalence(case):
    """Both backends return word-identical ids for every workload."""
    table, workload, partitioner, num_shards = case
    reference, processes = (
        ShardedDatabase(
            table,
            num_shards=num_shards,
            partitioner=partitioner,
            executor=executor,
        )
        for executor in (
            "sequential", ProcessShardExecutor(start_method="fork"),
        )
    )
    try:
        for db in (reference, processes):
            db.create_index("ix", "bre")
        for semantics in ALL_SEMANTICS:
            expected = [reference.execute(q, semantics) for q in workload]
            for exp, query in zip(expected, workload):
                assert _same_ids(exp, processes.execute(query, semantics))
                assert _same_ids(
                    exp,
                    processes.query_predicate(
                        from_range_query(query), semantics
                    ),
                )
            batch = processes.execute_batch(workload, semantics)
            for exp, got in zip(expected, batch):
                assert _same_ids(exp, got)
    finally:
        reference.close()
        processes.close()


def test_spawn_equivalence():
    """The default spawn start method works end to end."""
    table = _table()
    with ShardedDatabase(
        table, num_shards=3, executor="sequential"
    ) as seq, ShardedDatabase(
        table,
        num_shards=3,
        executor=ProcessShardExecutor(start_method="spawn"),
    ) as proc:
        seq.create_index("ix", "bre")
        proc.create_index("ix", "bre")
        for semantics in ALL_SEMANTICS:
            for query in QUERIES:
                assert _same_ids(
                    seq.execute(query, semantics),
                    proc.execute(query, semantics),
                )


def test_process_executor_records_cross_process_fanouts():
    table = _table()
    with obs.use_registry() as registry:
        with ShardedDatabase(
            table,
            num_shards=3,
            executor=ProcessShardExecutor(start_method="fork"),
        ) as db:
            db.create_index("ix", "bre")
            db.execute(QUERIES[0], MissingSemantics.IS_MATCH)
            db.execute_batch(QUERIES, MissingSemantics.NOT_MATCH)
        counters = registry.snapshot().counters
    assert counters.get("shard.process_fanouts", 0) >= 2
    # Worker-side engine counters must merge back into the parent registry.
    assert counters.get("engine.queries", 0) > 0


def test_both_tasks_reach_the_process_workers():
    """``BOTH`` rides the same task lists, so it fans out across processes."""
    table = _table()
    with obs.use_registry() as registry:
        with ShardedDatabase(
            table,
            num_shards=3,
            executor=ProcessShardExecutor(start_method="fork"),
        ) as db:
            db.create_index("ix", "bre")
            db.execute(QUERIES[0], BOTH)
            db.execute_batch(QUERIES, BOTH)
        counters = registry.snapshot().counters
    assert counters["shard.process_fanouts"] == 2
    # One worker-side engine query per shard task, both-mode each.
    assert counters["semantics.both_queries"] == counters["engine.queries"]
    assert counters["engine.queries"] >= 3


def test_worker_metrics_match_sequential():
    """Cross-process telemetry is exact: same counters as sequential."""
    table = _table()

    def run(executor):
        with obs.use_registry() as registry:
            with ShardedDatabase(
                table, num_shards=3, executor=executor
            ) as db:
                db.create_index("ix", "bre")
                for query in QUERIES:
                    db.execute(query, MissingSemantics.IS_MATCH)
            return registry.snapshot().counters

    sequential = run("sequential")
    process = run(ProcessShardExecutor(start_method="fork"))
    assert process["engine.queries"] == sequential["engine.queries"]


def test_process_trace_spans_come_back():
    table = _table()
    with ShardedDatabase(
        table,
        num_shards=3,
        executor=ProcessShardExecutor(start_method="fork"),
    ) as db:
        db.create_index("ix", "bre")
        report = db.execute(
            QUERIES[0], MissingSemantics.IS_MATCH, trace=True
        )
    assert report.trace is not None
    shard_spans = [
        child
        for child in report.trace.root.children
        if child.attributes.get("shard") is not None
    ]
    executed = [s for s in report.per_shard if not s.pruned]
    assert len(shard_spans) == len(executed)


# -- lifecycle bugfixes --------------------------------------------------------


class TestMaxWorkersValidation:
    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_sharded_database_rejects(self, bad):
        with pytest.raises(ValueError, match="max_workers"):
            ShardedDatabase(_table(200), num_shards=2, max_workers=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_process_executor_rejects(self, bad):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessShardExecutor(max_workers=bad)

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
        for executor in (
            SequentialShardExecutor(),
            ProcessShardExecutor(start_method="fork"),
        ):
            executor.close()
            executor.close()

    def test_closed_process_executor_rejects_work(self):
        executor = ProcessShardExecutor(start_method="fork")
        executor.close()
        db = ShardedDatabase(_table(200), num_shards=2, executor=executor)
        db.create_index("ix", "bre")
        with pytest.raises(ShardError, match="closed"):
            db.execute(QUERIES[0])

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

    def test_finalizer_reaps_worker_processes(self):
        executor = ProcessShardExecutor(start_method="fork")
        db = ShardedDatabase(_table(300), num_shards=2, executor=executor)
        db.create_index("ix", "bre")
        db.execute(QUERIES[0])
        procs = list(executor._procs)
        assert procs and all(p.is_alive() for p in procs)
        del db
        gc.collect()
        assert executor._closed
        assert all(not p.is_alive() for p in procs)

    def test_explicit_close_detaches_finalizer(self):
        db = ShardedDatabase(_table(200), num_shards=2)
        finalizer = db._finalizer
        db.close()
        assert not finalizer.alive

    def test_process_executor_binds_to_first_database(self):
        table = _table(300)
        executor = ProcessShardExecutor(start_method="fork")
        with ShardedDatabase(
            table, num_shards=2, executor=executor
        ) as first:
            first.create_index("ix", "bre")
            first.execute(QUERIES[0])
            second = ShardedDatabase(
                table, num_shards=2, executor=SequentialShardExecutor()
            )
            second._executor_impl = executor
            with pytest.raises(ShardError, match="bound"):
                second.execute(QUERIES[0])


# -- resolution ----------------------------------------------------------------


class TestResolveExecutor:
    def test_instance_passes_through(self):
        executor = SequentialShardExecutor()
        assert resolve_executor(executor) is executor

    def test_names_resolve(self):
        assert isinstance(
            resolve_executor("sequential"), SequentialShardExecutor
        )
        assert isinstance(
            resolve_executor("processes"), ProcessShardExecutor
        )

    def test_default_is_inline(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert isinstance(resolve_executor(), SequentialShardExecutor)

    def test_databases_default_to_inline(self, monkeypatch, tmp_path):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        with ShardedDatabase(_table(), num_shards=3) as db:
            db.create_index("ix", "bre")
            assert db.executor.name == "sequential"
            save_sharded(db, tmp_path)
            with obs.use_registry() as registry:
                db.execute(QUERIES[0])
                db.execute_batch(QUERIES)
            counters = registry.snapshot().counters
            assert counters["shard.sequential_fanouts"] == 2
        with load_sharded(tmp_path) as loaded:
            assert loaded.executor.name == "sequential"

    def test_databases_keep_explicit_choices(self, monkeypatch, tmp_path):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        table = _table()
        # Workers start at the first fan-out, so none is spawned here.
        with ShardedDatabase(
            table, num_shards=2, executor="processes"
        ) as db:
            assert db.executor.name == "processes"
            db.create_index("ix", "bre")
            save_sharded(db, tmp_path)
        with load_sharded(tmp_path, executor="processes") as loaded:
            assert loaded.executor.name == "processes"
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "processes")
        with ShardedDatabase(table, num_shards=2) as db:
            assert db.executor.name == "processes"
        with load_sharded(tmp_path) as loaded:
            assert loaded.executor.name == "processes"

    def test_removed_selectors_are_rejected(self):
        with pytest.raises(ShardError, match="unknown shard executor"):
            resolve_executor("threads")
        with pytest.raises(TypeError, match="parallel"):
            ShardedDatabase(_table(200), num_shards=2, parallel=True)

    def test_explicit_name_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "sequential")
        assert isinstance(
            resolve_executor("processes"), ProcessShardExecutor
        )

    def test_unknown_name_raises(self):
        with pytest.raises(ShardError, match="unknown shard executor"):
            resolve_executor("carrier-pigeons")

    def test_unknown_start_method_raises(self):
        with pytest.raises(ShardError, match="start method"):
            ProcessShardExecutor(start_method="teleport")

    def test_database_env_var_selection(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "sequential")
        with ShardedDatabase(_table(200), num_shards=2) as db:
            assert isinstance(db.executor, SequentialShardExecutor)

    def test_custom_executor_subclass(self):
        """The single ``run`` override sees every entry point's tasks."""

        class Recorder(SequentialShardExecutor):
            name = "recorder"

            def __init__(self):
                self.seen = []

            def run(self, db, tasks):
                self.seen.append([type(t.items[0]) for t in tasks])
                return super().run(db, tasks)

        recorder = Recorder()
        with ShardedDatabase(
            _table(200), num_shards=2, executor=recorder
        ) as db:
            db.create_index("ix", "bre")
            db.execute(QUERIES[0])
            db.execute_batch(QUERIES)
            db.query_predicate(Not(from_range_query(QUERIES[0])))
        assert recorder.seen == [[RangeQuery] * 2, [RangeQuery] * 2, [Not] * 2]
        assert isinstance(recorder, ShardExecutor)


# -- stale-worker fence --------------------------------------------------------


def _mutated_pair(table, mutate):
    """Apply the same mutation to a process-backed and a sequential db."""
    proc = ShardedDatabase(
        table,
        num_shards=3,
        executor=ProcessShardExecutor(start_method="fork"),
    )
    seq = ShardedDatabase(table, num_shards=3, executor="sequential")
    for db in (proc, seq):
        db.create_index("ix", "bre")
    # Prime the workers so the mutation happens after bootstrap.
    proc.execute(QUERIES[0], MissingSemantics.IS_MATCH)
    for db in (proc, seq):
        mutate(db)
    return proc, seq


def _assert_equivalent(proc, seq, using="ix"):
    for semantics in MissingSemantics:
        for query in QUERIES:
            assert np.array_equal(
                proc.execute(query, semantics, using=using).record_ids,
                seq.execute(query, semantics, using=using).record_ids,
            )


class TestStaleWorkerFence:
    def test_delete_generation_bump_resyncs_workers(self):
        def mutate(db):
            for shard in db.shards:
                n = shard.database.table.num_records
                shard.database.get_index("ix").index.delete(
                    np.arange(0, n, 5)
                )
                shard.database.invalidate_cache("ix")

        proc, seq = _mutated_pair(_table(), mutate)
        try:
            with obs.use_registry() as registry:
                _assert_equivalent(proc, seq)
            syncs = registry.snapshot().counters.get(
                "shard.executor.syncs", 0
            )
            assert syncs >= proc.num_shards
        finally:
            proc.close()
            seq.close()

    def test_append_generation_bump_resyncs_workers(self):
        # All-missing chunk: appended rows never match under NOT_MATCH
        # semantics, so results stay within the parent table's row range.
        def mutate(db):
            for shard in db.shards:
                schema = shard.database.table.schema
                chunk = IncompleteTable(
                    schema,
                    {
                        spec.name: np.zeros(8, dtype=np.int64)
                        for spec in schema
                    },
                )
                shard.database.get_index("ix").index.append(chunk)
                shard.database.invalidate_cache("ix")

        proc, seq = _mutated_pair(_table(), mutate)
        try:
            with obs.use_registry() as registry:
                for query in QUERIES:
                    assert np.array_equal(
                        proc.execute(
                            query, MissingSemantics.NOT_MATCH, using="ix"
                        ).record_ids,
                        seq.execute(
                            query, MissingSemantics.NOT_MATCH, using="ix"
                        ).record_ids,
                    )
            syncs = registry.snapshot().counters.get(
                "shard.executor.syncs", 0
            )
            assert syncs >= proc.num_shards
        finally:
            proc.close()
            seq.close()

    def test_compact_generation_bump_resyncs_workers(self):
        def mutate(db):
            for shard in db.shards:
                index = shard.database.get_index("ix").index
                index.delete(np.arange(0, index.num_records, 4))
                index.compact()
                shard.database.invalidate_cache("ix")

        proc, seq = _mutated_pair(_table(), mutate)
        try:
            _assert_equivalent(proc, seq)
        finally:
            proc.close()
            seq.close()

    def test_drop_and_create_epoch_bump_resyncs_workers(self):
        table = _table()
        proc = ShardedDatabase(
            table,
            num_shards=3,
            executor=ProcessShardExecutor(start_method="fork"),
        )
        seq = ShardedDatabase(table, num_shards=3, executor="sequential")
        try:
            for db in (proc, seq):
                db.create_index("ix", "bre")
            _assert_equivalent(proc, seq)
            for db in (proc, seq):
                db.drop_index("ix")
                db.create_index("ix", "bee", codec="bbc")
            _assert_equivalent(proc, seq)
        finally:
            proc.close()
            seq.close()

    def test_unchanged_state_does_not_resync(self):
        table = _table()
        with obs.use_registry() as registry:
            with ShardedDatabase(
                table,
                num_shards=3,
                executor=ProcessShardExecutor(start_method="fork"),
            ) as db:
                db.create_index("ix", "bre")
                for query in QUERIES:
                    db.execute(query, MissingSemantics.IS_MATCH)
            counters = registry.snapshot().counters
        assert counters.get("shard.executor.syncs", 0) == 0


# -- bootstrap paths -----------------------------------------------------------


def test_file_bootstrap_from_saved_generation():
    """Workers of a loaded database bootstrap by mmapping the saved files."""
    table = _table(1200)
    source = ShardedDatabase(table, num_shards=3)
    source.create_index("ix", "bre", codec="wah")
    source.create_index("va", "vafile")
    with tempfile.TemporaryDirectory() as root:
        save_sharded(source, root)
        source.close()
        proc = load_sharded(
            root, executor=ProcessShardExecutor(start_method="fork")
        )
        seq = load_sharded(root, executor="sequential")
        try:
            assert proc._storage is not None
            for semantics in MissingSemantics:
                for query in QUERIES:
                    assert np.array_equal(
                        proc.execute(query, semantics).record_ids,
                        seq.execute(query, semantics).record_ids,
                    )
        finally:
            proc.close()
            seq.close()


def test_worker_failure_surfaces_as_shard_error():
    table = _table(300)
    executor = ProcessShardExecutor(start_method="fork")
    with ShardedDatabase(table, num_shards=2, executor=executor) as db:
        db.create_index("ix", "bre")
        db.execute(QUERIES[0])
        for proc in executor._procs:
            proc.terminate()
            proc.join(timeout=5.0)
        with pytest.raises(ShardError, match="worker"):
            db.execute(QUERIES[1])


def test_fork_under_load_keeps_child_usable():
    """Forking while threads hammer telemetry must not deadlock the child.

    Regression test for the fork-safety audit: the :mod:`repro.forksafe`
    ``os.register_at_fork`` hooks re-arm every registered lock in the
    child, so a child forked mid-update can still record metrics and run
    queries (the process executor's ``fork`` start method relies on it).
    """
    if not hasattr(os, "fork"):
        pytest.skip("fork not available")
    import threading

    table = _table(300)
    db = IncompleteDatabase(table)
    db.create_index("ix", "bre")
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            obs.record("fork.test.counter")
            db.execute(QUERIES[0], MissingSemantics.IS_MATCH)

    with obs.use_registry():
        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(3):
                pid = os.fork()
                if pid == 0:
                    # Child: locks must be usable immediately.
                    try:
                        obs.record("fork.test.child")
                        db.execute(QUERIES[1], MissingSemantics.NOT_MATCH)
                        os._exit(0)
                    except BaseException:
                        os._exit(1)
                _, status = os.waitpid(pid, 0)
                assert os.waitstatus_to_exitcode(status) == 0
        finally:
            stop.set()
            for thread in threads:
                thread.join()
