"""CI smoke check for the observability stack (``obs-smoke`` job).

End-to-end, in one process: install a real metrics registry and a
workload recorder (slow log at threshold 0 so it retains queries), start
the live telemetry endpoint, run an engine *and* a sharded workload on a
background thread, and scrape every route over real HTTP **while the
workload is executing**.  Then validate:

* the ``/metrics`` payload is well-formed Prometheus text exposition
  (every sample line parses; every family has ``# HELP`` and ``# TYPE``;
  counters end in ``_total``; summaries carry ``_sum``/``_count``);
* ``/healthz``, ``/varz``, and ``/workload`` return coherent JSON;
* the recorder captured exactly one record per executed query (batch
  members included, sharded queries counted once);
* the slow-query log retained entries with rendered traces.

Exit status is non-zero on any failure, so CI can gate on it::

    PYTHONPATH=src python -m repro.experiments.obs_smoke
"""

from __future__ import annotations

import json
import re
import sys
import threading
import urllib.error
import urllib.request

import numpy as np

from repro import observability as obs
from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.query.model import MissingSemantics
from repro.shard import ShardedDatabase

_RECORDS = 8_000
_SCHEMA = {"a": 50, "b": 20}
_MISSING = {"a": 0.1, "b": 0.2}
_ENGINE_QUERIES = 40
_SHARD_QUERIES = 10
_BATCH = 8

#: ``name{labels} value`` or ``name value`` (value: float/int/+Inf/NaN).
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" ([-+]?[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)


class SmokeFailure(AssertionError):
    """One validation step of the smoke check failed."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def _fetch(url: str) -> tuple[int, str, str]:
    """GET a URL; returns (status, content-type, body). 404s don't raise."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type", ""), ""


def validate_prometheus(body: str) -> int:
    """Validate one ``/metrics`` payload; returns the number of samples.

    Enforces the text-exposition rules the repo's exporter promises:
    ``# HELP`` then ``# TYPE`` per family, counter samples ending in
    ``_total``, summary families carrying ``_sum``/``_count``, and every
    non-comment line parsing as a sample.
    """
    helps: dict[str, str] = {}
    types: dict[str, str] = {}
    samples: list[str] = []
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            _check(len(parts) == 4, f"malformed HELP line: {line!r}")
            _check(parts[2] not in helps, f"duplicate HELP for {parts[2]}")
            helps[parts[2]] = parts[3]
        elif line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            _check(len(parts) == 4, f"malformed TYPE line: {line!r}")
            family = parts[2]
            _check(
                parts[3] in ("counter", "gauge", "summary", "histogram",
                             "untyped"),
                f"unknown TYPE {parts[3]!r} for {family}",
            )
            _check(family in helps, f"# TYPE {family} has no preceding # HELP")
            types[family] = parts[3]
        elif line.startswith("#"):
            continue  # free-form comment
        else:
            _check(
                _SAMPLE_RE.match(line) is not None,
                f"unparseable sample line: {line!r}",
            )
            samples.append(line)
    _check(samples, "no samples in /metrics payload")
    _check(
        set(helps) == set(types),
        f"HELP/TYPE families differ: {set(helps) ^ set(types)}",
    )
    sample_names = {line.split("{", 1)[0].split(" ", 1)[0] for line in samples}
    for family, kind in types.items():
        if kind == "counter":
            # 0.0.4 style: the family name itself carries the _total suffix.
            _check(
                family.endswith("_total"),
                f"counter {family} does not end in _total",
            )
            _check(
                family in sample_names,
                f"counter {family} declared but never sampled",
            )
        elif kind == "summary":
            for suffix in ("_sum", "_count"):
                _check(
                    f"{family}{suffix}" in sample_names,
                    f"summary {family} is missing {family}{suffix}",
                )
        else:
            _check(
                family in sample_names,
                f"{kind} {family} declared but never sampled",
            )
    return len(samples)


def _run_workload(engine_db, sharded_db, errors: list) -> None:
    """Execute the scripted workload (runs on a background thread)."""
    rng = np.random.default_rng(7)
    try:
        for i in range(_ENGINE_QUERIES):
            lo = int(rng.integers(1, 40))
            engine_db.execute(
                {"a": (lo, lo + 10)},
                list(MissingSemantics)[i % len(MissingSemantics)],
            )
        engine_db.execute_batch(
            [{"b": (int(lo), int(lo) + 3)} for lo in rng.integers(1, 15, _BATCH)]
        )
        for _ in range(_SHARD_QUERIES):
            lo = int(rng.integers(1, 40))
            sharded_db.execute({"a": (lo, lo + 5)})
        sharded_db.execute_batch(
            [{"a": (int(lo), int(lo) + 5)} for lo in rng.integers(1, 40, _BATCH)]
        )
    except Exception as exc:  # pragma: no cover - failure path
        errors.append(exc)


def obs_smoke_main() -> int:
    expected = _ENGINE_QUERIES + _BATCH + _SHARD_QUERIES + _BATCH

    table = generate_uniform_table(_RECORDS, _SCHEMA, _MISSING, seed=11)
    engine_db = IncompleteDatabase(table)
    engine_db.create_index("bre", "bre")
    sharded_db = ShardedDatabase(
        generate_uniform_table(_RECORDS, _SCHEMA, _MISSING, seed=12),
        num_shards=3,
    )
    sharded_db.create_index("bre", "bre")

    obs.set_registry(obs.MetricsRegistry())
    recorder = obs.WorkloadRecorder(
        slow_log=obs.SlowQueryLog(threshold_ms=0.0, keep=8)
    )
    obs.set_recorder(recorder)

    errors: list = []
    with obs.start_telemetry_server() as server:
        worker = threading.Thread(
            target=_run_workload, args=(engine_db, sharded_db, errors)
        )
        worker.start()
        # Scrape every route repeatedly *while* the workload runs: this is
        # the concurrent-read-vs-write path the locks exist for.
        live_scrapes = 0
        while worker.is_alive():
            for route in ("/metrics", "/healthz", "/varz", "/workload"):
                status, _, _ = _fetch(server.url + route)
                _check(status == 200, f"{route} returned {status} mid-run")
                live_scrapes += 1
        worker.join()
        _check(not errors, f"workload thread failed: {errors}")

        status, content_type, metrics_body = _fetch(server.url + "/metrics")
        _check(status == 200, f"/metrics returned {status}")
        _check(
            content_type.startswith("text/plain") and "0.0.4" in content_type,
            f"/metrics content-type {content_type!r} is not exposition 0.0.4",
        )
        num_samples = validate_prometheus(metrics_body)
        _check(
            f"{server.prefix}_workload_records_total" in metrics_body,
            "workload.records counter missing from /metrics",
        )

        status, _, body = _fetch(server.url + "/healthz")
        health = json.loads(body)
        _check(health["status"] == "ok", f"healthz says {health}")
        _check(
            health["queries_recorded"] == expected,
            f"healthz recorded {health['queries_recorded']}, "
            f"expected {expected}",
        )

        _, _, body = _fetch(server.url + "/varz")
        varz = json.loads(body)
        _check(varz["counters"], "varz has no counters")
        _check(
            varz["counters"].get("workload.records") == expected,
            f"varz workload.records={varz['counters'].get('workload.records')}"
            f", expected {expected}",
        )

        _, _, body = _fetch(server.url + "/workload")
        workload = json.loads(body)
        summary = workload["summary"]
        _check(
            summary["total_recorded"] == expected,
            f"summary recorded {summary['total_recorded']}, "
            f"expected {expected}",
        )
        _check(
            set(summary["source_mix"]) == {"engine", "shard"},
            f"source mix {summary['source_mix']} missing a source",
        )
        _check(workload["slow_queries"], "slow log retained nothing")
        _check(
            any(entry["trace"] for entry in workload["slow_queries"]),
            "no slow-query entry carries a trace",
        )

        status, _, _ = _fetch(server.url + "/no-such-route")
        _check(status == 404, f"unknown route returned {status}, wanted 404")

    sharded_db.close()
    print(
        f"obs-smoke OK: {expected} queries recorded, {num_samples} Prometheus "
        f"samples, {live_scrapes} live scrapes during the workload, "
        f"{len(workload['slow_queries'])} slow-log entries"
    )
    return 0


def main() -> int:
    try:
        return obs_smoke_main()
    except SmokeFailure as failure:
        print(f"obs-smoke FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
