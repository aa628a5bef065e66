"""Bench regression tracking: guarded metrics, baselines, --against gate."""

from __future__ import annotations

import json

import pytest

from repro.experiments.bench import SCHEMA_VERSION, _result_as_dict, bench_main
from repro.experiments.regression import (
    GuardedMetricError,
    compare_payloads,
    guarded_metrics,
    load_baseline,
)

MICRO_RESULTS = {
    "nbits": 100_000,
    "repeats": 5,
    "median_ms": {
        "python": {"wah_and_sparse": 2.0},
        "numpy": {"wah_and_sparse": 0.1},
    },
    "speedup_vs_python": {"numpy": {"wah_and_sparse": 20.0, "bad": None}},
}

FIG5_RESULTS = {
    "title": "fig5",
    "x_label": "dimensions",
    "columns": ["bee_ms", "bee_words", "bee_bitmaps", "bre_cached_ms"],
    "rows": [[2, 35.0, 1000, 80, 17.0], [4, 70.0, 2500, 160, 30.0]],
    "notes": [],
}


def _payload(area, results, schema=SCHEMA_VERSION):
    return {"schema": schema, "area": area, "results": results}


class TestGuardedMetrics:
    def test_micro_ops_guards_speedups_only(self):
        metrics = guarded_metrics("micro_ops", MICRO_RESULTS)
        assert metrics == {
            "micro_ops.speedup.numpy.wah_and_sparse": (20.0, True),
        }

    def test_experiment_rows_guard_counts_not_timings(self):
        metrics = guarded_metrics("fig5_latency", FIG5_RESULTS)
        assert metrics == {
            "fig5_latency[x=2].bee_words": (1000.0, False),
            "fig5_latency[x=2].bee_bitmaps": (80.0, False),
            "fig5_latency[x=4].bee_words": (2500.0, False),
            "fig5_latency[x=4].bee_bitmaps": (160.0, False),
        }
        # No *_ms column is guarded: wall clock moves with the machine.
        assert not any("_ms" in name for name in metrics)

    def test_bre_over_va_is_guarded_lower_is_better(self):
        results = {
            "columns": ["bre_ms", "va_ms", "bre_over_va"],
            "rows": [[10, 25.0, 10.0, 2.5]],
        }
        metrics = guarded_metrics("fig5_latency", results)
        assert metrics == {"fig5_latency[x=10].bre_over_va": (2.5, False)}
        slower = {**results, "rows": [[10, 40.0, 10.0, 4.0]]}
        failures = compare_payloads(
            _payload("fig5_latency", results), slower, 0.25
        )
        assert len(failures) == 1 and "bre_over_va" in failures[0]
        closer = {**results, "rows": [[10, 15.0, 10.0, 1.5]]}
        assert compare_payloads(
            _payload("fig5_latency", results), closer, 0.25
        ) == []

    def test_fig5_suite_reports_the_ratio_it_guards(self):
        from repro.experiments.fig5 import run_fig5a

        result = run_fig5a(
            num_records=600, cardinalities=(5,), dimensionality=2,
            num_queries=3,
        )
        (ratio,) = result.column("bre_over_va")
        (bre_ms,), (va_ms,) = result.column("bre_ms"), result.column("va_ms")
        assert ratio == pytest.approx(bre_ms / va_ms)
        (regret,) = result.column("planner_over_best")
        (bee_ms,), (planner_ms,) = (
            result.column("bee_ms"), result.column("planner_ms")
        )
        assert regret == pytest.approx(planner_ms / min(bee_ms, bre_ms, va_ms))
        metrics = guarded_metrics("fig5_latency", _result_as_dict(result))
        assert metrics["fig5_latency[x=5].planner_over_best"] == (regret, False)

    def test_ratio_columns_are_higher_is_better(self):
        results = {
            "columns": ["speedup", "cache_hit_rate", "total_ms"],
            "rows": [[8, 3.5, 0.97, 120.0]],
        }
        metrics = guarded_metrics("batch_hit_rate", results)
        assert metrics["batch_hit_rate[x=8].speedup"] == (3.5, True)
        assert metrics["batch_hit_rate[x=8].cache_hit_rate"] == (0.97, True)
        assert "batch_hit_rate[x=8].total_ms" not in metrics


class TestComparePayloads:
    def test_identical_run_passes(self):
        baseline = _payload("fig5_latency", FIG5_RESULTS)
        assert compare_payloads(baseline, FIG5_RESULTS, 0.25) == []

    def test_higher_is_better_regression_fails(self):
        baseline = _payload("micro_ops", MICRO_RESULTS)
        slower = json.loads(json.dumps(MICRO_RESULTS))
        slower["speedup_vs_python"]["numpy"]["wah_and_sparse"] = 10.0
        failures = compare_payloads(baseline, slower, 0.25, source="base.json")
        assert len(failures) == 1
        assert "micro_ops.speedup.numpy.wah_and_sparse" in failures[0]
        assert "base.json" in failures[0]

    def test_within_tolerance_passes(self):
        baseline = _payload("micro_ops", MICRO_RESULTS)
        slightly = json.loads(json.dumps(MICRO_RESULTS))
        slightly["speedup_vs_python"]["numpy"]["wah_and_sparse"] = 16.0
        assert compare_payloads(baseline, slightly, 0.25) == []

    def test_lower_is_better_regression_fails(self):
        baseline = _payload("fig5_latency", FIG5_RESULTS)
        worse = json.loads(json.dumps(FIG5_RESULTS))
        worse["rows"][0][2] = 1600  # bee_words at x=2: +60% > 25% ceiling
        failures = compare_payloads(baseline, worse, 0.25)
        assert len(failures) == 1
        assert "fig5_latency[x=2].bee_words" in failures[0]

    def test_improvements_never_fail(self):
        baseline = _payload("fig5_latency", FIG5_RESULTS)
        better = json.loads(json.dumps(FIG5_RESULTS))
        better["rows"][0][2] = 10  # far fewer words: an improvement
        assert compare_payloads(baseline, better, 0.25) == []

    def test_missing_metric_is_a_failure(self):
        baseline = _payload("fig5_latency", FIG5_RESULTS)
        shrunk = json.loads(json.dumps(FIG5_RESULTS))
        shrunk["rows"] = shrunk["rows"][:1]  # the x=4 row vanished
        failures = compare_payloads(baseline, shrunk, 0.25)
        assert len(failures) == 2
        assert all("missing" in failure for failure in failures)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_payloads(_payload("micro_ops", MICRO_RESULTS),
                             MICRO_RESULTS, -0.1)


class TestLoadBaseline:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_micro_ops.json"
        path.write_text(json.dumps(_payload("micro_ops", MICRO_RESULTS)))
        payload = load_baseline(str(path), SCHEMA_VERSION)
        assert payload["area"] == "micro_ops"

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(GuardedMetricError, match="cannot read"):
            load_baseline(str(tmp_path / "absent.json"), SCHEMA_VERSION)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(GuardedMetricError, match="cannot read"):
            load_baseline(str(path), SCHEMA_VERSION)

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(_payload("micro_ops", MICRO_RESULTS,
                                            schema=SCHEMA_VERSION + 1)))
        with pytest.raises(GuardedMetricError, match="schema"):
            load_baseline(str(path), SCHEMA_VERSION)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "keyless.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION}))
        with pytest.raises(GuardedMetricError, match="missing"):
            load_baseline(str(path), SCHEMA_VERSION)


class TestBenchAgainstCli:
    """End-to-end: the micro_ops suite runs in-process against a tmp baseline."""

    def _run_baseline(self, tmp_path):
        assert bench_main([
            "micro_ops", "--repeats", "3", "--output-dir", str(tmp_path),
        ]) == 0
        return tmp_path / "BENCH_micro_ops.json"

    def test_generous_baseline_passes(self, tmp_path):
        path = self._run_baseline(tmp_path)
        payload = json.loads(path.read_text())
        for cases in payload["results"]["speedup_vs_python"].values():
            for case in cases:
                cases[case] = 0.01  # trivially beatable
        path.write_text(json.dumps(payload))
        assert bench_main([
            "--against", str(path), "--repeats", "3",
            "--output-dir", str(tmp_path / "out"),
        ]) == 0

    def test_injected_regression_fails(self, tmp_path, capsys):
        path = self._run_baseline(tmp_path)
        payload = json.loads(path.read_text())
        for cases in payload["results"]["speedup_vs_python"].values():
            for case in cases:
                cases[case] = 1e9  # unreachable: every real run regresses
        path.write_text(json.dumps(payload))
        assert bench_main([
            "--against", str(path), "--repeats", "3",
            "--output-dir", str(tmp_path / "out"),
        ]) == 1
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_against_selects_baseline_suites(self, tmp_path, capsys):
        path = self._run_baseline(tmp_path)
        payload = json.loads(path.read_text())
        for cases in payload["results"]["speedup_vs_python"].values():
            for case in cases:
                cases[case] = 0.01  # suite selection is under test, not noise
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert bench_main([
            "--against", str(path), "--repeats", "3",
            "--output-dir", str(tmp_path / "out"),
        ]) == 0
        out = capsys.readouterr().out
        assert "micro_ops" in out
        assert "fig5_latency" not in out  # only the baseline's area ran

    def test_bad_baseline_is_a_usage_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(SystemExit):
            bench_main(["--against", str(missing)])
