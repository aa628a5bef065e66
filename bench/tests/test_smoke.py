"""Smoke tests for the benchmark itself: ``python -m pytest bench/tests -q``.

They run the real command in ``--quick`` mode (about two minutes in all),
so they are kept out of the repo's tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import data  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Per-layer metrics that are counts of work, not times: these must repeat exactly.
EXACT = (
    "bitvector.ops_per_query", "bitvector.words_decoded_per_query",
    "bitvector.words_emitted_per_query", "bitvector.compression_ratio.uniform",
    "bitvector.compression_ratio.clustered", "bitmap.bitmaps_per_query",
    "bitmap.words_per_query", "vafile.codes_scanned_per_query",
    "vafile.refined_per_result", "core.plan_vafile_frac",
    "shard.fanout_tasks_per_query", "shard.pruned_frac", "dataset.table_mb",
)


def run_quick(tmp_path: Path, *extra: str) -> list[dict]:
    out = tmp_path / "results.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> list[dict]:
    return run_quick(tmp_path_factory.mktemp("quick"))


def test_every_metric_of_the_contract_is_emitted_with_its_unit(quick):
    assert {(r["workload"], r["traced"]) for r in quick} == {
        (w["name"], traced) for w in CONTRACT["workloads"] for traced in (False, True)}
    for run in quick:
        wanted = CONTRACT["per_layer" if run["traced"] else "end_to_end"]
        assert {m["name"]: m["unit"] for m in wanted} == {
            name: m["unit"] for name, m in run["metrics"].items()}, run["workload"]


def test_no_operation_fails_and_every_checked_answer_agrees(quick):
    for run in quick:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, run["workload"]


def test_exact_counts_repeat(quick, tmp_path):
    again = run_quick(tmp_path, "--workload", "bitmap_range", "--trace", "1")[0]
    first = next(r for r in quick if r["workload"] == "bitmap_range" and r["traced"])
    for name in EXACT:
        assert again["metrics"][name]["value"] == first["metrics"][name]["value"], name


def test_a_corrupted_response_is_counted_as_an_error(monkeypatch, tmp_path):
    honest = loadgen.Connection.request

    def corrupt(self, path, body=None):
        status, payload = honest(self, path, body)
        if path in ("/query", "/count", "/boolean", "/batch"):
            payload = payload.replace(b'matches": ', b'matches": 1', 1)   # 37 -> 137
        return status, payload

    monkeypatch.setattr(loadgen.Connection, "request", corrupt)
    result = workloads.run_served("served_read", seed=1, seconds=2.0, rows=20_000,
                                  scratch=tmp_path)
    assert result.failed > 0 and not result.correct


def test_the_seed_decides_the_inputs():
    small = dict(rows=5_000, pool_size=64)
    one, same, other = data.Inputs(1, **small), data.Inputs(1, **small), data.Inputs(2, **small)
    assert one.range_ops == same.range_ops and one.served_ops == same.served_ops
    assert all((one.columns[name] == same.columns[name]).all() for name in one.columns)
    assert one.range_ops != other.range_ops
