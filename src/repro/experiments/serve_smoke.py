"""CI smoke check for the query service (``serve-smoke`` job).

End-to-end, in one process: save a sharded database to disk, boot a
:class:`~repro.serve.QueryService` over the directory, and drive
concurrent mixed traffic — several reader threads rotating through every
read route under both missing semantics while a writer thread publishes
new epochs (append / delete / compact) through the same service.  The
introspection routes are scraped *while* the traffic runs.  Then
validate:

* every reader and writer request returned 200 — zero 5xx (or any other
  non-200) across the whole run, and zero admission rejections
  (``serve.rejected.*``) with the service's default one-wide read lane;
* connections are kept alive: each client thread's whole script rides
  one accepted connection (``serve.connections`` equals the number of
  clients, far below ``serve.requests``);
* the epoch lifecycle actually cycled: epochs were published, stale
  snapshots were garbage-collected (``gcs > 0``), and after the drain
  exactly one epoch remains retained with zero pins;
* on disk, only the final committed generation directory survives, and
  the directory still passes :func:`~repro.storage.verify_sharded` — the
  crash-safety invariant (previous epoch loadable at every instant)
  holds at least at the endpoints of the run;
* the ``/metrics`` payload is well-formed Prometheus text exposition and
  carries the ``serve.*`` and ``epoch.*`` instrumentation;
* every JSON 200 reply is byte for byte ``json.dumps(json.loads(body),
  sort_keys=True, separators=(",", ": ")) + "\n"`` — the compact form,
  whichever encoder wrote its id lists.

Exit status is non-zero on any failure, so CI can gate on it::

    PYTHONPATH=src python -m repro.experiments.serve_smoke
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import observability as obs
from repro.dataset.synthetic import generate_uniform_table
from repro.experiments.obs_smoke import (
    SmokeFailure,
    _check,
    validate_prometheus,
)
from repro.query.model import MissingSemantics
from repro.serve import QueryService
from repro.shard import ShardedDatabase, save_sharded

_RECORDS = 6_000
_SCHEMA = {"a": 50, "b": 20}
_MISSING = {"a": 0.1, "b": 0.2}
_READERS = 4
_READS_PER_READER = 25
_WRITER_ROUNDS = 4  # each round: append, delete, compact = 3 epochs


def _is_compact(body: bytes) -> bool:
    """Whether ``body`` is exactly the compact JSON ``json.dumps`` writes."""
    try:
        text = json.dumps(
            json.loads(body), sort_keys=True, separators=(",", ": ")
        )
    except ValueError:
        return False
    return body == (text + "\n").encode("utf-8")


class _Client:
    """One keep-alive connection, the way a real client holds one.

    Routes whose 200 reply was not the compact JSON bytes are collected
    in :attr:`not_compact`.
    """

    def __init__(self, service: QueryService):
        self._conn = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        self.not_compact: list[str] = []

    def _read(self, route: str, response) -> bytes:
        body = response.read()
        if (
            response.status == 200
            and response.getheader("Content-Type", "").startswith(
                "application/json"
            )
            and not _is_compact(body)
        ):
            self.not_compact.append(route)
        return body

    def get(self, route: str) -> tuple[int, str, str]:
        """Returns (status, content-type, body text)."""
        self._conn.request("GET", route)
        response = self._conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type", ""),
            self._read(route, response).decode("utf-8"),
        )

    def post(self, route: str, payload: dict) -> tuple[int, dict]:
        """Returns (status, decoded JSON body)."""
        self._conn.request(
            "POST",
            route,
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = self._conn.getresponse()
        return response.status, json.loads(self._read(route, response))

    def close(self) -> None:
        self._conn.close()


def _read_bodies(seed: int) -> list[tuple[str, dict]]:
    """One reader's scripted requests, rotating routes and semantics."""
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(_READS_PER_READER):
        lo = int(rng.integers(1, 40))
        semantics = list(MissingSemantics)[i % 2].value
        route = ("/query", "/count", "/batch", "/boolean", "/explain")[i % 5]
        if route == "/batch":
            body = {
                "queries": [{"a": [lo, lo + 5]}, {"b": [1, 10]}],
                "semantics": semantics,
            }
        elif route == "/boolean":
            body = {
                "predicate": {
                    "and": [
                        {"atom": {"attribute": "a", "lo": lo, "hi": lo + 8}},
                        {"not": {"atom": {"attribute": "b", "lo": 1, "hi": 4}}},
                    ]
                },
                "semantics": semantics,
            }
        else:
            body = {
                "bounds": {"a": [lo, lo + 5]},
                "semantics": semantics,
                "limit": 16,
            }
        requests.append((route, body))
    return requests


def _reader(client: _Client, seed: int, failures: list) -> None:
    for route, body in _read_bodies(seed):
        status, payload = client.post(route, body)
        if status != 200:
            failures.append((route, status, payload.get("error")))


def _writer(client: _Client, failures: list, epochs: list) -> None:
    """Publish epochs through the service while the readers run."""
    rng = np.random.default_rng(99)
    for _ in range(_WRITER_ROUNDS):
        batch = 64
        ops = [
            ("/append", {
                "rows": {
                    "a": [int(v) for v in rng.integers(1, 51, batch)],
                    "b": [int(v) for v in rng.integers(1, 21, batch)],
                },
            }),
            ("/delete", {
                "record_ids": [int(v) for v in rng.integers(0, _RECORDS, 8)],
            }),
            ("/compact", {}),
        ]
        for route, body in ops:
            status, payload = client.post(route, body)
            if status != 200:
                failures.append((route, status, payload.get("error")))
            else:
                epochs.append(payload["epoch"])


def serve_smoke_main() -> int:
    obs.set_registry(obs.MetricsRegistry())
    obs.set_recorder(obs.WorkloadRecorder())

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        directory = Path(tmp) / "db"
        table = generate_uniform_table(_RECORDS, _SCHEMA, _MISSING, seed=21)
        with ShardedDatabase(table, num_shards=3) as db:
            db.create_index("ix", "bre")
            save_sharded(db, directory)

        # Defaults on purpose: one read at a time, 16 queue places — the
        # readers below must fit without a single rejection.
        service = QueryService(directory=directory).start()
        # One connection per reader, one for the writer, one for scrapes.
        clients = [_Client(service) for _ in range(_READERS + 2)]
        *reader_clients, writer_client, scraper = clients
        try:
            failures: list = []
            epochs: list[int] = []
            threads = [
                threading.Thread(
                    target=_reader, args=(client, 100 + i, failures)
                )
                for i, client in enumerate(reader_clients)
            ]
            threads.append(
                threading.Thread(
                    target=_writer, args=(writer_client, failures, epochs)
                )
            )
            for thread in threads:
                thread.start()
            # Scrape the admission-exempt routes while traffic is running.
            live_scrapes = 0
            while any(thread.is_alive() for thread in threads):
                for route in ("/healthz", "/epochs", "/metrics"):
                    status, _, _ = scraper.get(route)
                    _check(status == 200, f"{route} returned {status} mid-run")
                    live_scrapes += 1
            for thread in threads:
                thread.join()

            _check(not failures, f"non-200 responses: {failures[:5]}")
            not_compact = [
                route for client in clients for route in client.not_compact
            ]
            _check(
                not not_compact,
                f"200 replies not in the compact JSON form: {not_compact[:5]}",
            )
            expected_epochs = 3 * _WRITER_ROUNDS
            _check(
                len(epochs) == expected_epochs and sorted(epochs) == epochs,
                f"writer saw epochs {epochs}, expected {expected_epochs} "
                f"monotonically increasing",
            )

            status, _, body = scraper.get("/epochs")
            _check(status == 200, f"/epochs returned {status}")
            stats = json.loads(body)
            _check(
                stats["published"] == expected_epochs,
                f"published {stats['published']}, expected {expected_epochs}",
            )
            _check(stats["gcs"] > 0, f"no epoch was garbage-collected: {stats}")
            _check(
                stats["retained"] == 1 and stats["pinned"] == 0,
                f"expected 1 retained / 0 pinned after drain, got {stats}",
            )
            _check(
                stats["current_epoch"] == epochs[-1],
                f"current epoch {stats['current_epoch']} is not the last "
                f"published {epochs[-1]}",
            )

            status, content_type, metrics_body = scraper.get("/metrics")
            _check(status == 200, f"/metrics returned {status}")
            _check(
                content_type.startswith("text/plain")
                and "0.0.4" in content_type,
                f"/metrics content-type {content_type!r} is not 0.0.4",
            )
            num_samples = validate_prometheus(metrics_body)
            for family in (
                f"{service.prefix}_serve_requests_total",
                f"{service.prefix}_epoch_publishes_total",
                f"{service.prefix}_epoch_gcs_total",
            ):
                _check(
                    family in metrics_body,
                    f"{family} missing from /metrics",
                )
            gcs_total = stats["gcs"]

            counters = obs.get_registry().snapshot().counters
            rejected = {
                name: value
                for name, value in counters.items()
                if name.startswith("serve.rejected.")
            }
            _check(not rejected, f"admission rejected requests: {rejected}")
            connections = counters.get("serve.connections", 0)
            requests = counters.get("serve.requests", 0)
            _check(
                connections == len(clients),
                f"{connections} connections accepted for {len(clients)} "
                f"keep-alive clients ({requests} requests)",
            )
        finally:
            for client in clients:
                client.close()
            service.stop()

        # After the drain only the committed generation may survive, and
        # the directory must still be a loadable, verifiable save.
        gen_dirs = sorted(
            child.name for child in directory.iterdir() if child.is_dir()
        )
        _check(
            gen_dirs == [f"gen-{epochs[-1]:06d}"],
            f"expected only the final generation on disk, found {gen_dirs}",
        )
        from repro.storage import verify_sharded

        report = verify_sharded(directory)
        _check(report.ok, f"post-run fsck failed:\n{report.format()}")

    print(
        f"serve-smoke OK: {_READERS} readers x {_READS_PER_READER} requests "
        f"+ {expected_epochs} epochs published, {gcs_total} GC'd, zero "
        f"non-200s, zero rejections, {requests} requests over "
        f"{connections} connections, {live_scrapes} live scrapes, "
        f"{num_samples} Prometheus samples, every JSON reply compact, "
        f"final generation fsck clean"
    )
    return 0


def main() -> int:
    try:
        return serve_smoke_main()
    except SmokeFailure as failure:
        print(f"serve-smoke FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
