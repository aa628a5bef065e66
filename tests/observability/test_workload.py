"""WorkloadRecorder: ring, sink, summary, and the engine/shard hooks."""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.core.engine import IncompleteDatabase
from repro.observability import (
    NULL_RECORDER,
    NullWorkloadRecorder,
    RotatingJsonlSink,
    SlowQueryLog,
    WorkloadRecorder,
    get_recorder,
    set_recorder,
    use_recorder,
    use_registry,
    workload_summary,
)
from repro.query.model import MissingSemantics, RangeQuery
from repro.shard import ShardedDatabase


#: Every request arity goes through the same scatter-gather bookkeeping.
SEMANTICS = ("is_match", "not_match", "both")


def _record(recorder, elapsed_ns=1000, attr="a", lo=1, hi=5, **kwargs):
    defaults = dict(
        source="engine",
        batch=False,
        query=RangeQuery.from_bounds({attr: (lo, hi)}),
        semantics=MissingSemantics.IS_MATCH,
        index="idx",
        kind="bre",
        matches=3,
        elapsed_ns=elapsed_ns,
    )
    defaults.update(kwargs)
    return recorder.record_query(**defaults)


class TestRecorder:
    def test_record_normalizes_query(self):
        rec = _record(WorkloadRecorder(), elapsed_ns=42)
        assert rec.intervals == (("a", 1, 5),)
        assert rec.attributes == ("a",)
        assert rec.semantics == "is_match"
        assert rec.elapsed_ns == 42
        assert rec.ts > 0
        payload = rec.as_dict()
        assert payload["intervals"] == [["a", 1, 5]]
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_ring_wraparound_keeps_most_recent(self):
        recorder = WorkloadRecorder(capacity=3)
        for i in range(7):
            _record(recorder, lo=i + 1, hi=i + 1)
        assert recorder.total_recorded == 7
        kept = [rec.intervals[0][1] for rec in recorder.records()]
        assert kept == [5, 6, 7]  # oldest first, window = capacity

    def test_clear_keeps_lifetime_total(self):
        recorder = WorkloadRecorder()
        _record(recorder)
        recorder.clear()
        assert recorder.records() == []
        assert recorder.total_recorded == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            WorkloadRecorder(capacity=0)

    def test_summary_aggregates_window(self):
        recorder = WorkloadRecorder()
        for elapsed in (100, 200, 300, 400):
            _record(recorder, elapsed_ns=elapsed)
        _record(recorder, attr="b", lo=2, hi=9, kind="vafile",
                index="va", source="shard", batch=True, elapsed_ns=500,
                semantics=MissingSemantics.NOT_MATCH)
        summary = recorder.summary()
        assert summary["total_recorded"] == 5
        assert summary["window"] == 5
        assert summary["attributes"] == {"a": 4, "b": 1}
        assert summary["intervals"] == {"a[1,5]": 4, "b[2,9]": 1}
        assert summary["plan_mix"] == {"idx": 4, "va": 1}
        assert summary["kind_mix"] == {"bre": 4, "vafile": 1}
        assert summary["semantics_mix"] == {"is_match": 4, "not_match": 1}
        assert summary["source_mix"] == {"engine": 4, "shard": 1}
        assert summary["matches"] == 15
        assert summary["latency_ns"]["max"] == 500
        assert summary["latency_ns"]["p50"] == 300
        json.dumps(summary)

    def test_summary_empty(self):
        summary = WorkloadRecorder().summary()
        assert summary["window"] == 0
        assert summary["latency_ns"]["p50"] == 0

    def test_workload_summary_reads_installed_recorder(self):
        assert workload_summary()["window"] == 0  # null recorder default
        with use_recorder() as recorder:
            _record(recorder)
            assert workload_summary()["window"] == 1

    def test_recording_is_metered(self):
        with use_registry() as registry:
            _record(WorkloadRecorder())
        assert registry.snapshot().counters["workload.records"] == 1

    def test_concurrent_recording_loses_nothing(self):
        recorder = WorkloadRecorder(capacity=10_000)
        threads = [
            threading.Thread(
                target=lambda: [_record(recorder) for _ in range(200)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert recorder.total_recorded == 8 * 200
        assert len(recorder.records()) == 8 * 200


class TestInstallation:
    def test_default_is_null(self):
        recorder = get_recorder()
        assert isinstance(recorder, NullWorkloadRecorder)
        assert recorder is NULL_RECORDER
        assert not recorder.active
        assert _record(recorder) is None
        assert recorder.total_recorded == 0

    def test_use_recorder_installs_and_restores(self):
        before = get_recorder()
        with use_recorder() as recorder:
            assert get_recorder() is recorder
            assert recorder.active
        assert get_recorder() is before

    def test_set_recorder_returns_previous(self):
        recorder = WorkloadRecorder()
        prev = set_recorder(recorder)
        try:
            assert get_recorder() is recorder
        finally:
            assert set_recorder(prev) is recorder


class TestRotatingSink:
    def test_writes_one_json_line_per_record(self, tmp_path):
        path = tmp_path / "wl.jsonl"
        with RotatingJsonlSink(path) as sink:
            recorder = WorkloadRecorder(sink=sink)
            _record(recorder)
            _record(recorder, attr="b", lo=2, hi=3)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["intervals"] == [["b", 2, 3]]

    def test_rotation_shifts_backups(self, tmp_path):
        path = tmp_path / "wl.jsonl"
        sink = RotatingJsonlSink(path, max_bytes=400, backups=2)
        recorder = WorkloadRecorder(sink=sink)
        for _ in range(12):
            _record(recorder)
        sink.close()
        assert os.path.exists(path)
        assert os.path.exists(f"{path}.1")
        assert os.path.exists(f"{path}.2")
        assert not os.path.exists(f"{path}.3")  # oldest dropped
        for candidate in (path, f"{path}.1", f"{path}.2"):
            with open(candidate, encoding="utf-8") as handle:
                for line in handle:
                    json.loads(line)

    def test_zero_backups_truncates(self, tmp_path):
        path = tmp_path / "wl.jsonl"
        sink = RotatingJsonlSink(path, max_bytes=400, backups=0)
        recorder = WorkloadRecorder(sink=sink)
        for _ in range(12):
            _record(recorder)
        sink.close()
        assert not os.path.exists(f"{path}.1")
        assert os.path.getsize(path) <= 400

    def test_validates_arguments(self, tmp_path):
        with pytest.raises(ValueError):
            RotatingJsonlSink(tmp_path / "x", max_bytes=0)
        with pytest.raises(ValueError):
            RotatingJsonlSink(tmp_path / "x", backups=-1)


class TestEngineIntegration:
    def test_execute_records_each_query(self, small_table):
        db = IncompleteDatabase(small_table)
        db.create_index("idx", "bre")
        with use_recorder() as recorder:
            report = db.execute({"mid": (2, 5)})
            db.execute({"high": (10, 40)}, MissingSemantics.NOT_MATCH)
        assert recorder.total_recorded == 2
        first, second = recorder.records()
        assert first.source == "engine" and not first.batch
        assert first.intervals == (("mid", 2, 5),)
        assert first.index == report.index_name
        assert first.kind == report.kind
        assert first.matches == len(report.record_ids)
        assert first.elapsed_ns == report.elapsed_ns > 0
        assert second.semantics == "not_match"

    def test_execute_batch_records_each_member(self, small_table):
        db = IncompleteDatabase(small_table)
        db.create_index("idx", "bre")
        queries = [{"mid": (2, 5)}, {"mid": (2, 5)}, {"high": (1, 30)}]
        with use_recorder() as recorder:
            db.execute_batch(queries)
        assert recorder.total_recorded == 3
        assert all(rec.batch for rec in recorder.records())

    def test_slow_log_armed_without_leaking_traces(self, small_table):
        db = IncompleteDatabase(small_table)
        db.create_index("idx", "bre")
        recorder = WorkloadRecorder(slow_log=SlowQueryLog(threshold_ms=0.0))
        with use_recorder(recorder):
            report = db.execute({"mid": (2, 5)})
        assert report.trace is None  # forced trace stays internal
        (entry,) = recorder.slow_log.entries()
        assert entry.trace is not None
        assert entry.trace.find("plan")
        assert entry.record.counters.get("bitmap.bitvectors_touched", 0) > 0

    def test_trace_counters_on_record(self, small_table):
        db = IncompleteDatabase(small_table)
        db.create_index("idx", "bre")
        recorder = WorkloadRecorder(slow_log=SlowQueryLog(threshold_ms=0.0))
        with use_recorder(recorder):
            db.execute({"mid": (2, 5)})
        (rec,) = recorder.records()
        assert any(name.startswith("wah.") for name in rec.counters)

    def test_null_recorder_records_nothing(self, small_table):
        db = IncompleteDatabase(small_table)
        db.create_index("idx", "bre")
        db.execute({"mid": (2, 5)})
        assert get_recorder().total_recorded == 0

    def test_results_identical_with_and_without_recorder(self, small_table):
        db = IncompleteDatabase(small_table)
        db.create_index("idx", "bre")
        bare = db.execute({"mid": (2, 5)}).record_ids
        recorder = WorkloadRecorder(slow_log=SlowQueryLog(threshold_ms=0.0))
        with use_recorder(recorder), use_registry():
            recorded = db.execute({"mid": (2, 5)}).record_ids
        assert list(bare) == list(recorded)


class TestShardedIntegration:
    @pytest.fixture
    def sharded(self, small_table):
        db = ShardedDatabase(small_table, num_shards=3)
        db.create_index("idx", "bre")
        yield db
        db.close()

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_one_record_per_scatter_gather(self, sharded, semantics):
        with use_recorder() as recorder:
            report = sharded.execute({"mid": (2, 5)}, semantics)
        assert recorder.total_recorded == 1  # never one per shard
        (rec,) = recorder.records()
        assert rec.source == "shard"
        assert rec.semantics == semantics
        # The widest requested bound: possible ids under "both".
        assert rec.matches == (
            report.num_possible if semantics == "both" else report.num_matches
        )
        assert rec.shards_executed + rec.shards_pruned == 3

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_batch_records_per_query_once(self, sharded, semantics):
        queries = [{"mid": (2, 5)}, {"high": (1, 30)}]
        with use_recorder() as recorder:
            sharded.execute_batch(queries, semantics)
        assert recorder.total_recorded == 2
        assert all(rec.source == "shard" for rec in recorder.records())
        assert all(rec.batch for rec in recorder.records())

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_sharded_slow_log_captures_fanout_trace(self, sharded, semantics):
        recorder = WorkloadRecorder(slow_log=SlowQueryLog(threshold_ms=0.0))
        with use_recorder(recorder):
            report = sharded.execute({"mid": (2, 5)}, semantics)
        assert report.trace is None
        (entry,) = recorder.slow_log.entries()
        assert entry.trace is not None
        assert entry.trace.root.name == "query"
        # plan, then one execute span per executed shard
        names = [span.name for span in entry.trace.root.children]
        assert names == ["plan"] + ["execute.bre"] * (
            entry.record.shards_executed
        )

    @pytest.mark.parametrize("semantics", SEMANTICS)
    def test_metrics_registry_with_recorder(self, sharded, semantics):
        with use_registry() as registry, use_recorder():
            report = sharded.execute({"mid": (2, 5)}, semantics)
        snapshot = registry.snapshot()
        assert snapshot.counters["workload.records"] == 1
        assert snapshot.counters["shard.queries"] == 1
        executed = sum(1 for s in report.per_shard if not s.pruned)
        assert snapshot.counters["shard.fanout_tasks"] == executed
        for name in ("shard.fanout_ns", "shard.merge_ns", "shard.skew"):
            assert snapshot.histograms[name].count == 1
        assert snapshot.histograms["shard.task_ns"].count == executed
