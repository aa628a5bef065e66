"""JSON query service over epoch-pinned snapshots.

:class:`QueryService` is the serving front end of ROADMAP item 1: the
repo's one HTTP loop (:class:`~repro.observability.server.HTTPLoop`, the
telemetry endpoint's too) whose read routes pin the current epoch for
exactly the duration of one request, and whose write routes go through
the serialized :class:`~repro.serve.writer.SnapshotWriter`.

Routes (JSON in/out unless noted):

=================  ====  ==================================================
``/healthz``       GET   liveness + current epoch
``/metrics``       GET   Prometheus exposition of the installed registry
``/epochs``        GET   epoch lifecycle stats (current, retained, pins...)
``/query``         POST  range query -> matching record ids
``/count``         POST  range query -> match count only
``/batch``         POST  many range queries through the batch executor
``/boolean``       POST  AND/OR/NOT predicate tree query
``/ranked``        POST  probabilistic query -> ids ranked by match chance
``/explain``       POST  the sharded plan for a range query, as text
``/append``        POST  append rows (new epoch)
``/delete``        POST  remove rows by id (new epoch)
``/compact``       POST  rewrite into a fresh generation (new epoch)
``/create-index``  POST  add an index (new epoch)
``/drop-index``    POST  remove an index (new epoch)
=================  ====  ==================================================

Read requests accept ``semantics`` (``"is_match"`` / ``"not_match"`` /
``"both"`` — the last returns the certain/possible answer pair, see
``docs/semantics.md``), ``using`` (force an index), ``limit`` (cap
returned record ids), and ``deadline_ms`` (also settable via an
``X-Deadline-Ms`` header).  ``/ranked`` additionally accepts
``threshold`` (minimum match probability).  Replies are compact JSON;
``?pretty=1`` on any route indents them.  Connections are HTTP/1.1
keep-alive.

Threads and admission: one loop thread serves every connection, and
runs the reads and the introspection routes of each round one after
another, in arrival order — reads are CPU-bound Python, and two threads
sharing the GIL finish fewer of them than one (``docs/serving.md``).  A
read with more than ``queue_limit`` reads ahead of it in its round gets
**429**; one whose deadline passes before its turn gets **408**.  Writes
run on the loop's one writer thread, so a slow publish never holds
readers up.  Once :meth:`QueryService.stop` starts draining, new reads
and writes get **503** while an in-flight write finishes.
Every outcome is metered under ``serve.*`` (see
``docs/observability.md``) and every executed query flows through the
installed workload recorder via the engine's own instrumentation.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np

from repro.core.engine import IncompleteDatabase
from repro.errors import QueryError, ReproError
from repro.observability import get_registry, record
from repro.observability.export import render_prometheus
from repro.observability.server import HTTPLoop, Offload, Request
from repro.query.boolean import And, Atom, Not, Or, Predicate
from repro.query.model import BOTH, RangeQuery, resolve_semantics
from repro.serve.epoch import EpochManager
from repro.serve.writer import SnapshotWriter

__all__ = ["QueryService"]

#: Route -> metric suffix for ``serve.requests.<route>`` counters.
_ROUTE_KEYS = {
    "/healthz": "healthz",
    "/metrics": "metrics",
    "/epochs": "epochs",
    "/query": "query",
    "/count": "count",
    "/batch": "batch",
    "/boolean": "boolean",
    "/ranked": "ranked",
    "/explain": "explain",
    "/append": "append",
    "/delete": "delete",
    "/compact": "compact",
    "/create-index": "create_index",
    "/drop-index": "drop_index",
}

_READ_ROUTES = frozenset(
    {"/query", "/count", "/batch", "/boolean", "/ranked", "/explain"}
)

_MAX_BODY_BYTES = 64 * 1024 * 1024


class _Reject(Exception):
    """An admission-control or client error mapped to an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _parse_body(raw: bytes) -> dict:
    if not raw:
        return {}
    try:
        body = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _Reject(400, f"request body is not valid JSON: {exc}")
    if not isinstance(body, dict):
        raise _Reject(400, "request body must be a JSON object")
    return body


def _parse_semantics(value):
    try:
        return resolve_semantics(value)
    except QueryError as exc:
        raise _Reject(400, str(exc))


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer that fits 64 bits; anything else
    is a 400 naming ``field`` (a bool, a float or a string is never
    truncated to one)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or not -(1 << 63) <= value < (1 << 63)
    ):
        raise _Reject(
            400, f"{field} must be a 64-bit integer, got {json.dumps(value)}"
        )
    return value


def _json_number(value, field: str) -> float:
    """``value`` if it is a JSON number; a bool, a string or anything else
    is a 400 naming ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Reject(
            400, f"{field} must be a number, got {json.dumps(value)}"
        )
    return float(value)


def _json_str(value, field: str) -> str:
    """``value`` if it is a JSON string; anything else is a 400 naming
    ``field``."""
    if not isinstance(value, str):
        raise _Reject(
            400, f"{field} must be a string, got {json.dumps(value)}"
        )
    return value


def _parse_bounds(bounds, field: str = "bounds") -> RangeQuery:
    """``{attribute: [lo, hi]}`` -> a RangeQuery; errors name ``field``."""
    if not isinstance(bounds, dict) or not bounds:
        raise _Reject(
            400,
            f"{field} must be {{attribute: [lo, hi]}}, "
            f"got {json.dumps(bounds)}",
        )
    try:
        return RangeQuery.from_bounds({
            name: (
                _json_int(lo, f"{field}.{name}[0]"),
                _json_int(hi, f"{field}.{name}[1]"),
            )
            for name, (lo, hi) in bounds.items()
        })
    except (TypeError, ValueError) as exc:
        raise _Reject(400, f"malformed {field!r}: {exc}")


def _parse_predicate(node) -> Predicate:
    """``{"and": [...]}`` / ``{"or": [...]}`` / ``{"not": ...}`` /
    ``{"atom": {"attribute", "lo", "hi"}}`` -> a Predicate tree."""
    if not isinstance(node, dict) or len(node) != 1:
        raise _Reject(
            400,
            "predicate nodes are single-key objects: "
            "atom / and / or / not",
        )
    (op, value), = node.items()
    try:
        if op == "atom":
            if not isinstance(value, dict):
                raise TypeError(
                    f"atom body must be an object, got "
                    f"{type(value).__name__}"
                )
            attribute = value["attribute"]
            if not isinstance(attribute, str):
                raise TypeError(
                    f"'attribute' must be a string, got "
                    f"{type(attribute).__name__}"
                )
            lo = _json_int(value["lo"], "atom.lo")
            return Atom.of(
                attribute, lo, _json_int(value.get("hi", lo), "atom.hi")
            )
        if op == "and":
            return And(tuple(_parse_predicate(child) for child in value))
        if op == "or":
            return Or(tuple(_parse_predicate(child) for child in value))
        if op == "not":
            return Not(_parse_predicate(value))
    except _Reject:
        raise
    except KeyError as exc:
        raise _Reject(
            400, f"malformed predicate node {op!r}: missing key {exc}"
        )
    except (TypeError, ValueError, ReproError) as exc:
        # ReproError covers constructor-level rejections — empty and/or
        # children, inverted intervals — which used to escape as opaque
        # errors; a client typo should always come back as a 400 naming
        # the offending node.
        raise _Reject(400, f"malformed predicate node {op!r}: {exc}")
    raise _Reject(400, f"unknown predicate operator {op!r}")


def _parse_limit(body: dict) -> int | None:
    limit = body.get("limit")
    if limit is None:
        return None
    if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
        raise _Reject(
            400, f"limit must be a non-negative integer, got {limit!r}"
        )
    return limit


def _ids_payload(record_ids: np.ndarray, limit: int | None) -> dict:
    """One id list's reply fields; the ids stay an int64 array until
    :func:`_compact_json` writes them."""
    matches = len(record_ids)
    if limit is not None:
        record_ids = record_ids[:limit]
    return {
        "matches": matches,
        "record_ids": record_ids,
        "truncated": matches > len(record_ids),
    }


# -- reply encoding ---------------------------------------------------------
#
# A compact reply is ``json.dumps(payload, sort_keys=True, default=str,
# separators=(",", ": ")) + "\n"`` with every id array written as its list,
# byte for byte.  Turning a long id array into Python ints and those into
# JSON is most of a read's encoding time, so long lists are written straight
# from the array instead (see "Reply encoding" in docs/serving.md).

_COMPACT = (",", ": ")

#: Id lists shorter than this are faster through ``json.dumps``.
_SHORT_IDS = 150

#: The digit-table encoder writes ids of at most eight digits.
_ID_LIMIT = 10**8

#: ``"0000"`` .. ``"9999"`` in ASCII, one uint32 per entry.
_DIGITS4 = (
    (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)

#: The first id with one more digit, for digit counts one to eight.
_DIGIT_ENDS = 10 ** np.arange(1, 9, dtype=np.int64)

#: What ``json.dumps`` writes in a long id list's place.
_IDS_MARKER = "\x00ids"
_IDS_TOKEN = json.dumps(_IDS_MARKER).encode("ascii")


def _plain(value):
    """``default=`` for ``json.dumps``: an array as its list, else ``str``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def _fast_ids(value) -> bool:
    """Whether :func:`_ids_json` writes ``value``: a long, ascending int64
    id list with every id in ``[0, 10**8)``."""
    return (
        isinstance(value, np.ndarray)
        and value.ndim == 1
        and value.dtype == np.int64
        and len(value) >= _SHORT_IDS
        and 0 <= value[0]
        and value[-1] < _ID_LIMIT
        and not (value[1:] < value[:-1]).any()
    )


def _ids_json(ids: np.ndarray) -> bytes:
    """``json.dumps(ids.tolist())`` as bytes, for ids that pass
    :func:`_fast_ids`.

    Two lookups in a table of four-digit strings give every id its eight
    zero-padded digits.  The ids ascend, so those of one digit count are
    a run, and each run copies its last ``d`` digit columns and a comma
    in one block.
    """
    digits = _DIGITS4[np.stack(np.divmod(ids, 10_000), axis=1)].view(np.uint8)
    ends = np.searchsorted(ids, _DIGIT_ENDS).tolist()
    out = np.empty(1 + 9 * len(ids), dtype=np.uint8)  # room for the widest
    out[0] = ord("[")
    pos = 1
    for width, start, end in zip(range(1, 9), [0, *ends], ends):
        if start == end:
            continue
        block = out[pos:pos + (end - start) * (width + 1)].reshape(
            end - start, width + 1
        )
        block[:, :width] = digits[start:end, 8 - width:]
        block[:, width] = ord(",")
        pos += block.size
    out[pos - 1] = ord("]")  # over the last comma
    return out[:pos].tobytes()


def _compact_json(payload: dict) -> bytes:
    """The compact reply body for ``payload`` (see the comment above).

    ``json.dumps`` writes the payload with a marker string in each long id
    list's place, and :func:`_ids_json` writes the lists spliced in after.
    A payload that holds the marker string itself is written whole by
    ``json.dumps``.
    """
    parked = []

    def park(value):
        if _fast_ids(value):
            parked.append(value)
            return _IDS_MARKER
        return _plain(value)

    text = json.dumps(
        payload, sort_keys=True, default=park, separators=_COMPACT
    )
    pieces = (text + "\n").encode("ascii").split(_IDS_TOKEN)
    if len(pieces) != len(parked) + 1:
        text = json.dumps(
            payload, sort_keys=True, default=_plain, separators=_COMPACT
        )
        return (text + "\n").encode("ascii")
    out = [pieces[0]]
    for ids, piece in zip(parked, pieces[1:]):
        out += (_ids_json(ids), piece)
    return b"".join(out)


class _ServiceLoop(HTTPLoop):
    """The service's HTTP loop: reads run on it, writes on its writer."""

    server_name = "repro-serve/1"
    methods = frozenset({"GET", "POST"})
    offloads = True

    def __init__(self, service: "QueryService", host: str, port: int):
        super().__init__(host, port)
        self.service = service

    @property
    def max_body(self) -> int:
        """``_MAX_BODY_BYTES``, read per request so a test can lower it."""
        return _MAX_BODY_BYTES

    def connected(self) -> None:
        record("serve.connections")

    def admit(self, request: Request):
        return self.service._admit(request)


class QueryService:
    """A running query service over epoch-pinned snapshots.

    Exactly one of ``database`` / ``directory`` selects the data:

    * ``database`` — serve an existing (open) :class:`IncompleteDatabase`,
      one segment or several;
      snapshots stay memory-only and the service takes ownership (the
      epoch manager closes each snapshot when its epoch is GC'd).
    * ``directory`` — open a :func:`~repro.shard.manifest.save_sharded`
      layout; writes persist new generation directories through the PR-5
      commit protocol and epoch numbers equal manifest generations.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read :attr:`port`).
    queue_limit:
        Reads a read may have ahead of it in its round before it is
        answered 429.
    default_deadline_ms:
        Deadline applied when a request does not set its own (``None``
        disables).
    prefix:
        Prometheus name prefix for ``/metrics``.
    """

    def __init__(
        self,
        database: IncompleteDatabase | None = None,
        directory: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 16,
        default_deadline_ms: float | None = None,
        prefix: str = "repro",
    ):
        if (database is None) == (directory is None):
            raise ReproError(
                "pass exactly one of database= or directory="
            )
        if queue_limit < 0:
            raise ReproError("queue_limit must be >= 0")
        if directory is not None:
            from repro.shard.manifest import load_sharded

            database = load_sharded(directory)
        self.epochs = EpochManager(database, directory)
        self.writer = SnapshotWriter(self.epochs, directory)
        self.prefix = prefix
        self.started_at = time.time()
        self._queue_limit = queue_limit
        self._default_deadline_ms = default_deadline_ms
        # Loop-thread counters.  Requests executing (a read on the loop,
        # writes on the writer thread); what a drain waits on.
        self._inflight = 0
        #: Reads parsed in this round that have not run yet.
        self._queued = 0
        self._draining = False
        self._httpd = _ServiceLoop(self, host, port)

    # -- lifecycle --------------------------------------------------------

    @property
    def host(self) -> str:
        """Bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound port (resolved when the service was created with port 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "QueryService":
        """Start the loop and writer threads (idempotent); returns self."""
        self._httpd.start("repro-serve")
        return self

    def stop(self, drain_timeout: float = 10.0) -> None:
        """Drain gracefully, then shut down (idempotent).

        New requests are refused with 503 immediately; an in-flight write
        gets up to ``drain_timeout`` seconds to finish before the listener
        closes.  A running read always finishes: it runs on the loop
        thread, which this joins.  Every retained snapshot is closed
        afterwards.
        """
        deadline = time.monotonic() + drain_timeout
        self._draining = True
        if self._httpd.running:
            # Once the loop has started a round after the flag was set,
            # every write has either been refused or counted in _inflight.
            mark = self._httpd.rounds
            self._httpd.wake()
            while (
                self._httpd.rounds <= mark or self._inflight > 0
            ) and time.monotonic() < deadline:
                time.sleep(0.005)
        self._httpd.stop()
        self.epochs.close()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request handling (loop thread) -----------------------------------

    def _admit(self, request: Request):
        """Take one parsed request, in arrival order: its reply, or the
        step that runs it at its turn in the round.

        Introspection answers at its turn whatever the load.  A read
        with more than ``queue_limit`` reads ahead of it in its round is
        answered 429; one whose deadline has passed by its turn, 408.
        While draining, reads and writes are answered 503.
        """
        path = request.path.rstrip("/") or "/healthz"
        route = _ROUTE_KEYS.get(path)
        record("serve.requests")
        record(f"serve.requests.{route or 'unknown'}")
        try:
            if route is None:
                return self._reply(
                    request,
                    {"error": f"unknown route {path!r}",
                     "routes": sorted(_ROUTE_KEYS)},
                    status=404,
                )
            body = _parse_body(request.body) if request.method == "POST" else {}
            deadline = self._deadline(request, body)
            if path in ("/healthz", "/metrics", "/epochs"):
                return lambda: self._reply(request, *self._introspect(path))
            self._refuse_if_draining()
            if path not in _READ_ROUTES:
                return lambda: self._offload_write(request, path, body)
            ahead = self._queued
            if ahead > self._queue_limit:
                record("serve.rejected.queue_full")
                raise _Reject(
                    429,
                    f"queue full ({ahead} reads ahead of this one, "
                    f"queue_limit {self._queue_limit})",
                )
            self._queued += 1
            get_registry().gauge("serve.queued").inc()
            return lambda: self._run_read(request, path, body, deadline, ahead)
        except Exception as exc:  # noqa: BLE001 - mapped to a status
            return self._failed(request, exc)

    def _refuse_if_draining(self) -> None:
        if self._draining:
            record("serve.rejected.draining")
            raise _Reject(503, "service is draining")

    def _run_read(self, request: Request, path: str, body: dict,
                  deadline: int | None, ahead: int):
        registry = get_registry()
        self._queued -= 1
        registry.gauge("serve.queued").dec()
        now = time.perf_counter_ns()
        registry.histogram("serve.wait_ns").observe(now - request.parsed_ns)
        try:
            if deadline is not None and now > deadline:
                record("serve.rejected.deadline")
                raise _Reject(
                    408,
                    "deadline expired while queued" if ahead
                    else "deadline expired",
                )
            self._inflight += 1
            registry.gauge("serve.inflight").inc()
            try:
                return self._reply(request, self._read(path, body))
            finally:
                self._inflight -= 1
                registry.gauge("serve.inflight").dec()
        except Exception as exc:  # noqa: BLE001 - mapped to a status
            return self._failed(request, exc)

    def _offload_write(self, request: Request, path: str, body: dict):
        """A write's turn: hand it to the writer thread (the snapshot
        writer serialises writes anyway), or refuse it while draining."""
        try:
            self._refuse_if_draining()
        except _Reject as exc:
            return self._failed(request, exc)
        self._inflight += 1
        get_registry().gauge("serve.inflight").inc()
        return Offload(
            lambda: self._run_write(request, path, body), self._write_done
        )

    def _run_write(self, request: Request, path: str, body: dict):
        """The write's reply; runs on the writer thread."""
        try:
            return self._reply(request, self._write(path, body))
        except Exception as exc:  # noqa: BLE001 - mapped to a status
            return self._failed(request, exc)

    def _write_done(self) -> None:
        self._inflight -= 1
        get_registry().gauge("serve.inflight").dec()

    def _reply(self, request: Request, payload, content: str | None = None,
               status: int = 200):
        """The reply for ``payload`` (JSON unless ``content`` names the
        type of a text payload); records the request's latency."""
        if content is not None:
            data = payload.encode("utf-8")
        elif "pretty=1" in request.query.split("&"):
            content = "application/json; charset=utf-8"
            data = (json.dumps(
                payload, sort_keys=True, default=_plain, indent=2
            ) + "\n").encode("utf-8")
        else:
            # indent=None keeps json.dumps on its C encoder.  The space
            # after a key's colon stays: payloads have a handful of keys,
            # and bench/tests corrupts a reply by matching ``"matches": ``.
            content = "application/json; charset=utf-8"
            data = _compact_json(payload)
        get_registry().histogram("serve.request_ns").observe(
            time.perf_counter_ns() - request.parsed_ns
        )
        return status, content, data

    def _failed(self, request: Request, exc: Exception):
        """The error reply for ``exc``: its own status for a rejection,
        400 for a library error, 500 for anything else."""
        if isinstance(exc, _Reject):
            status, error = exc.status, str(exc)
        elif isinstance(exc, ReproError):
            status, error = 400, f"{type(exc).__name__}: {exc}"
        else:
            status = 500
            error = f"internal error: {type(exc).__name__}: {exc}"
        record("serve.errors.server" if status >= 500 else "serve.errors.client")
        return self._reply(request, {"error": error}, status=status)

    def _deadline(self, request: Request, body: dict) -> int | None:
        """The request's deadline in ``perf_counter_ns``, counted from
        when it was parsed."""
        field, ms = "deadline_ms", body.get("deadline_ms")
        if ms is not None:
            ms = _json_number(ms, field)
        else:
            field, ms = "X-Deadline-Ms", request.headers.get("x-deadline-ms")
            if ms is None:
                ms = self._default_deadline_ms
            if ms is None:
                return None
            try:
                ms = float(ms)
            except (TypeError, ValueError):
                raise _Reject(400, f"{field} must be a number, got {ms!r}")
        if not (ms > 0 and math.isfinite(ms)):
            raise _Reject(
                400, f"{field} must be positive and finite, got {ms}"
            )
        return request.parsed_ns + int(ms * 1e6)

    def _introspect(self, path: str):
        if path == "/metrics":
            body = render_prometheus(
                get_registry().snapshot(), prefix=self.prefix
            )
            return body, "text/plain; version=0.0.4; charset=utf-8"
        if path == "/epochs":
            stats = self.epochs.stats()
            return {
                "current_epoch": stats.current_epoch,
                "retained": stats.retained,
                "pinned": stats.pinned,
                "published": stats.published,
                "gcs": stats.gcs,
            }, None
        return {
            "status": "draining" if self._draining else "ok",
            "epoch": self.epochs.current_epoch,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "inflight": self._inflight,
            "queued": self._queued,
        }, None

    # -- read routes ------------------------------------------------------

    def _read(self, path: str, body: dict) -> dict:
        semantics = _parse_semantics(body.get("semantics"))
        both = semantics is BOTH
        using = body.get("using")
        if using is not None:
            using = _json_str(using, "using")
        limit = _parse_limit(body)
        with self.epochs.pin() as pin:
            db = pin.database
            if path == "/ranked":
                return self._ranked(pin, db, body, using, limit)
            if path == "/batch":
                queries = body.get("queries")
                if not isinstance(queries, list) or not queries:
                    raise _Reject(
                        400, "body must carry 'queries': [{attr: [lo, hi]}]"
                    )
                normalized = [
                    _parse_bounds(q, f"queries[{i}]")
                    for i, q in enumerate(queries)
                ]
                reports = db.execute_batch(
                    normalized, semantics, using=using
                )
                if both:
                    results = [
                        dict(
                            index=r.index_name,
                            certain=_ids_payload(r.certain_ids, limit),
                            possible=_ids_payload(r.possible_ids, limit),
                        )
                        for r in reports
                    ]
                else:
                    results = [
                        dict(
                            index=r.index_name,
                            **_ids_payload(r.record_ids, limit),
                        )
                        for r in reports
                    ]
                return {
                    "epoch": pin.epoch,
                    "semantics": semantics.value,
                    "results": results,
                }
            if path == "/boolean":
                predicate = _parse_predicate(body.get("predicate"))
                report = db.query_predicate(predicate, semantics, using=using)
            elif path == "/explain":
                query = _parse_bounds(body.get("bounds"))
                return {
                    "epoch": pin.epoch,
                    "semantics": semantics.value,
                    "explain": db.explain(query, semantics),
                }
            else:
                query = _parse_bounds(body.get("bounds"))
                report = db.execute(query, semantics, using=using)
            payload = {
                "epoch": pin.epoch,
                "semantics": semantics.value,
                "index": report.index_name,
                "kind": report.kind,
            }
            if report.elapsed_ns is not None:
                payload["elapsed_ms"] = round(report.elapsed_ns / 1e6, 3)
            if both:
                payload["certain_matches"] = report.num_certain
                payload["possible_matches"] = report.num_possible
                if path != "/count":
                    payload["certain"] = _ids_payload(
                        report.certain_ids, limit
                    )
                    payload["possible"] = _ids_payload(
                        report.possible_ids, limit
                    )
            else:
                payload["matches"] = report.num_matches
                if path != "/count":
                    payload.update(_ids_payload(report.record_ids, limit))
            return payload

    def _ranked(self, pin, db, body: dict, using, limit) -> dict:
        query = _parse_bounds(body.get("bounds"))
        threshold = _json_number(body.get("threshold", 0.0), "threshold")
        report = db.execute_ranked(
            query, threshold=threshold, limit=limit, using=using
        )
        return {
            "epoch": pin.epoch,
            "index": report.index_name,
            "kind": report.kind,
            "matches": report.num_matches,
            "certain_matches": report.num_certain,
            "record_ids": report.record_ids.tolist(),
            "probabilities": [
                round(p, 6) for p in report.probabilities.tolist()
            ],
        }

    # -- write routes -----------------------------------------------------

    def _write(self, path: str, body: dict) -> dict:
        if path == "/append":
            rows = body.get("rows")
            if not isinstance(rows, dict) or not rows or not all(
                isinstance(col, list) for col in rows.values()
            ):
                raise _Reject(
                    400, "body must carry 'rows': {attribute: [values]}"
                )
            epoch = self.writer.append({
                name: np.array([
                    _json_int(v, f"rows.{name}[{i}]")
                    for i, v in enumerate(col)
                ], dtype=np.int64)
                for name, col in rows.items()
            })
        elif path == "/delete":
            ids = body.get("record_ids")
            if not isinstance(ids, list) or not ids:
                raise _Reject(400, "body must carry 'record_ids': [int]")
            epoch = self.writer.delete([
                _json_int(v, f"record_ids[{i}]") for i, v in enumerate(ids)
            ])
        elif path == "/compact":
            epoch = self.writer.compact()
        elif path == "/create-index":
            name, kind = body.get("name"), body.get("kind")
            if not name or not kind:
                raise _Reject(400, "body must carry 'name' and 'kind'")
            name, kind = _json_str(name, "name"), _json_str(kind, "kind")
            attributes = body.get("attributes")
            if attributes is not None and (
                not isinstance(attributes, list) or not attributes
                or not all(isinstance(a, str) for a in attributes)
            ):
                raise _Reject(
                    400,
                    f"attributes must be a non-empty list of strings, "
                    f"got {json.dumps(attributes)}",
                )
            overwrite = body.get("overwrite", False)
            if not isinstance(overwrite, bool):
                raise _Reject(
                    400,
                    f"overwrite must be true or false, "
                    f"got {json.dumps(overwrite)}",
                )
            options = body.get("options")
            if options is not None and not isinstance(options, dict):
                raise _Reject(
                    400,
                    f"options must be an object, got {json.dumps(options)}",
                )
            epoch = self.writer.create_index(
                name,
                kind,
                attributes=attributes,
                overwrite=overwrite,
                **(options or {}),
            )
        else:  # /drop-index
            name = body.get("name")
            if not name:
                raise _Reject(400, "body must carry 'name'")
            epoch = self.writer.drop_index(_json_str(name, "name"))
        return {"epoch": epoch, "route": path.lstrip("/")}
