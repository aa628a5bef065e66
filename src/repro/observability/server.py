"""Live telemetry endpoint: a stdlib HTTP thread serving scrape routes.

:func:`start_telemetry_server` spins up a
:class:`http.server.ThreadingHTTPServer` on a daemon thread and serves
four routes off whatever registry/recorder are installed process-wide:

* ``/metrics`` — Prometheus text exposition of the installed
  :class:`~repro.observability.MetricsRegistry` snapshot;
* ``/healthz`` — liveness JSON (status, uptime, queries recorded);
* ``/varz`` — one JSON snapshot of every instrument plus process info
  (and, when a database object was handed to the server, its cache and
  index introspection);
* ``/workload`` — the workload recorder's aggregated summary, the most
  recent records, and the slow-query log's entries with rendered traces.

The server holds no query-path state of its own: scrapes read the same
registry and recorder the engine writes, which is exactly why those are
thread-safe.  ``python -m repro.experiments serve-metrics`` wraps this in
a runnable demo service.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.observability.export import render_prometheus
from repro.observability.metrics import get_registry, record
from repro.observability.workload import get_recorder

__all__ = ["TelemetryServer", "start_telemetry_server"]

#: Routes served; anything else is a 404.
_ROUTES = ("/metrics", "/healthz", "/varz", "/workload")

#: How many of the most recent workload records ``/workload`` inlines.
_RECENT_RECORDS = 50


class _TelemetryHTTPServer(ThreadingHTTPServer):
    # Tests and smoke jobs restart endpoints rapidly; SO_REUSEADDR keeps a
    # lingering TIME_WAIT socket from failing the bind.  Explicit (rather
    # than inherited) so the policy is shared verbatim with the query
    # service's HTTP server.
    allow_reuse_address = True
    daemon_threads = True


class KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive base shared with the query service's handler.

    One handler thread serves a connection for its life, not one request.
    """

    protocol_version = "HTTP/1.1"
    # A buffered wfile sends headers and body in one write, and TCP_NODELAY
    # covers replies larger than the buffer: with neither, the body is a
    # second small segment that waits out the client's delayed ACK (~40 ms).
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True
    #: Seconds an idle connection is kept before its handler thread exits.
    timeout = 60

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # requests must not spam the service's stdout

    def reply(
        self, body: str | bytes, content_type: str, status: int = 200
    ) -> None:
        data = body.encode("utf-8") if isinstance(body, str) else body
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)


class _TelemetryHandler(KeepAliveHandler):
    """Routes one scrape; the owning :class:`TelemetryServer` is on the server."""

    server_version = "repro-telemetry/1"

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        telemetry: TelemetryServer = self.server.telemetry
        path = self.path.split("?", 1)[0].rstrip("/") or "/healthz"
        record("telemetry.requests")
        if path == "/metrics":
            record("telemetry.requests.metrics")
            body = render_prometheus(
                get_registry().snapshot(), prefix=telemetry.prefix
            )
            self.reply(body, "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/healthz":
            record("telemetry.requests.healthz")
            self._reply_json(telemetry.health())
        elif path == "/varz":
            record("telemetry.requests.varz")
            self._reply_json(telemetry.varz())
        elif path == "/workload":
            record("telemetry.requests.workload")
            self._reply_json(telemetry.workload())
        else:
            record("telemetry.requests.unknown")
            self.reply(
                f"404: unknown route {path!r}; try {', '.join(_ROUTES)}\n",
                "text/plain; charset=utf-8",
                status=404,
            )

    def _reply_json(self, payload: dict) -> None:
        self.reply(
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
            "application/json; charset=utf-8",
        )



class TelemetryServer:
    """A running telemetry endpoint (see module docstring).

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port`).
    database:
        Optional engine or sharded database; when given, ``/varz`` includes
        its cache stats and index names under ``"database"``.
    prefix:
        Prometheus metric-name prefix for ``/metrics``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        database=None,
        prefix: str = "repro",
    ):
        self.prefix = prefix
        self.database = database
        self.started_at = time.time()
        self._httpd = _TelemetryHTTPServer((host, port), _TelemetryHandler)
        self._httpd.telemetry = self
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        """Bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (resolved when the server was created with port 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running endpoint."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        """Start serving on a daemon thread (idempotent); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-telemetry",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the endpoint down and join its thread (idempotent)."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- route payloads ----------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` payload."""
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "queries_recorded": get_recorder().total_recorded,
        }

    def varz(self) -> dict:
        """The ``/varz`` payload: process info plus the full snapshot."""
        import os
        import platform

        snapshot = get_registry().snapshot()
        payload = {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "pid": os.getpid(),
            "python": platform.python_version(),
            "counters": dict(snapshot.counters),
            "gauges": dict(snapshot.gauges),
            "histograms": {
                name: {
                    "count": hist.count,
                    "sum": hist.total,
                    "min": hist.min,
                    "max": hist.max,
                    "mean": hist.mean,
                    "p50": hist.p50,
                    "p99": hist.p99,
                }
                for name, hist in snapshot.histograms.items()
            },
        }
        database = self.database
        if database is not None:
            info: dict = {"records": database.num_records}
            info["indexes"] = list(database.index_names)
            num_shards = getattr(database, "num_shards", None)
            if num_shards is not None:
                info["shards"] = num_shards
            payload["database"] = info
        return payload

    def workload(self) -> dict:
        """The ``/workload`` payload: summary, recent records, slow queries."""
        recorder = get_recorder()
        recent = recorder.records()[-_RECENT_RECORDS:]
        slow_log = recorder.slow_log
        return {
            "summary": recorder.summary(),
            "recent": [rec.as_dict() for rec in recent],
            "slow_queries": (
                [entry.as_dict() for entry in slow_log.entries()]
                if slow_log is not None
                else []
            ),
            "slow_query_threshold_ms": (
                slow_log.threshold_ns / 1e6 if slow_log is not None else None
            ),
        }


def start_telemetry_server(
    host: str = "127.0.0.1",
    port: int = 0,
    database=None,
    prefix: str = "repro",
) -> TelemetryServer:
    """Create and start a :class:`TelemetryServer`; returns it running."""
    return TelemetryServer(
        host=host, port=port, database=database, prefix=prefix
    ).start()
