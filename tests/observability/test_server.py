"""TelemetryServer: the four scrape routes, 404s, and concurrent scrapes."""

from __future__ import annotations

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.engine import IncompleteDatabase
from repro.observability import (
    SlowQueryLog,
    TelemetryServer,
    WorkloadRecorder,
    start_telemetry_server,
    use_recorder,
    use_registry,
)


def _get(url: str) -> tuple[int, str, str]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as err:
        return err.code, err.headers.get("Content-Type", ""), ""


@pytest.fixture
def db(small_table):
    db = IncompleteDatabase(small_table)
    db.create_index("idx", "bre")
    return db


@pytest.fixture
def stack(db):
    """A registry + recorder + running server, torn down afterwards."""
    recorder = WorkloadRecorder(slow_log=SlowQueryLog(threshold_ms=0.0))
    with use_registry() as registry, use_recorder(recorder):
        with start_telemetry_server(database=db) as server:
            yield server, registry, recorder, db


class TestRoutes:
    def test_metrics_is_prometheus(self, stack):
        server, _, _, db = stack
        db.execute({"mid": (2, 5)})
        status, content_type, body = _get(server.url + "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "# TYPE repro_engine_queries_total counter" in body
        assert "repro_workload_records_total 1" in body

    def test_healthz(self, stack):
        server, _, _, db = stack
        db.execute({"mid": (2, 5)})
        status, content_type, body = _get(server.url + "/healthz")
        assert status == 200
        assert content_type.startswith("application/json")
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["queries_recorded"] == 1
        assert health["uptime_seconds"] >= 0

    def test_varz_includes_database_info(self, stack):
        server, _, _, db = stack
        db.execute({"mid": (2, 5)})
        _, _, body = _get(server.url + "/varz")
        varz = json.loads(body)
        assert varz["counters"]["engine.queries"] == 1
        assert "engine.query_ns.bre" in varz["histograms"]
        assert varz["database"]["records"] == db.table.num_records
        assert "idx" in varz["database"]["indexes"]
        assert "hit_rate" in varz["database"]["cache"]

    def test_workload_route(self, stack):
        server, _, _, db = stack
        db.execute({"mid": (2, 5)})
        db.execute({"low": (1, 2)})
        _, _, body = _get(server.url + "/workload")
        workload = json.loads(body)
        assert workload["summary"]["total_recorded"] == 2
        assert len(workload["recent"]) == 2
        assert workload["slow_query_threshold_ms"] == 0.0
        assert len(workload["slow_queries"]) == 2
        assert all(entry["trace"] for entry in workload["slow_queries"])

    def test_unknown_route_404(self, stack):
        server, registry, _, _ = stack
        status, _, _ = _get(server.url + "/nope")
        assert status == 404
        assert registry.snapshot().counters["telemetry.requests.unknown"] == 1

    def test_scrapes_are_metered(self, stack):
        server, registry, _, _ = stack
        _get(server.url + "/metrics")
        _get(server.url + "/healthz")
        counters = registry.snapshot().counters
        assert counters["telemetry.requests"] == 2
        assert counters["telemetry.requests.metrics"] == 1
        assert counters["telemetry.requests.healthz"] == 1


class TestKeepAlive:
    def test_scrapes_share_one_connection(self, stack):
        server, _, _, _ = stack
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200 and response.version == 11
            sock = conn.sock
            for route, expected in (("/nope", 404), ("/metrics", 200)):
                conn.request("GET", route)
                response = conn.getresponse()
                response.read()
                assert response.status == expected
                assert conn.sock is sock
        finally:
            conn.close()


class TestLifecycle:
    def test_port_zero_picks_free_port(self, stack):
        server, _, _, _ = stack
        assert server.port > 0
        assert server.url.endswith(str(server.port))

    def test_start_and_stop_are_idempotent(self):
        server = TelemetryServer()
        try:
            assert server.start() is server
            server.start()
            status, _, _ = _get(server.url + "/healthz")
            assert status == 200
        finally:
            server.stop()
            server.stop()

    def test_two_servers_coexist(self):
        with start_telemetry_server() as first, start_telemetry_server() as second:
            assert first.port != second.port
            assert _get(first.url + "/healthz")[0] == 200
            assert _get(second.url + "/healthz")[0] == 200

    def test_reuse_addr_allows_rapid_rebind(self):
        import socket

        with start_telemetry_server() as server:
            assert server._httpd.socket.getsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR
            )
            port = server.port
        # Rebinding the same port immediately must not raise EADDRINUSE.
        with start_telemetry_server(port=port) as again:
            assert again.port == port
            assert _get(again.url + "/healthz")[0] == 200


class TestConcurrency:
    def test_concurrent_scrapes_while_querying(self, stack):
        server, _, recorder, db = stack
        stop = threading.Event()
        failures: list[str] = []

        def scrape():
            while not stop.is_set():
                for route in ("/metrics", "/workload", "/varz"):
                    status, _, _ = _get(server.url + route)
                    if status != 200:
                        failures.append(f"{route} -> {status}")

        scrapers = [threading.Thread(target=scrape) for _ in range(3)]
        for t in scrapers:
            t.start()
        for i in range(30):
            db.execute({"mid": (2, 5 + i % 5)})
        stop.set()
        for t in scrapers:
            t.join()
        assert not failures
        assert recorder.total_recorded == 30
