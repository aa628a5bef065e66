"""One HTTP loop, and the live telemetry endpoint that runs on it.

:class:`HTTPLoop` is the repo's one HTTP stack: a nonblocking
:mod:`selectors` loop on one thread that serves every connection.  The
query service (:class:`repro.serve.QueryService`) and
:class:`TelemetryServer` are both subclasses of it.  How it works:

* Each connection has an input and an output buffer.  The loop parses
  HTTP/1.1 itself: the request line, case-insensitive headers and a
  ``Content-Length`` body.
* A *round* is one ``select`` call.  The loop reads what arrived, takes at
  most one complete request off each connection, and runs the requests of
  the round in arrival order.  Pipelined bytes stay in the buffer for a
  later round.
* :meth:`HTTPLoop.admit` sees each request when it is parsed.  It returns
  the reply, or a step to run at the request's turn in the round.  That
  step returns the reply, or an :class:`Offload` whose work runs on the
  loop's one writer thread.  The connection is parked until the writer's
  reply comes back through a wake-up socketpair, so replies go out in
  request order.
* Replies go out through the output buffer, with ``EVENT_WRITE`` when the
  socket is full.  A slow, partial or vanished client never blocks the
  loop; a connection with no traffic for :attr:`HTTPLoop.idle_timeout`
  seconds is closed.

Protocol errors (a malformed request line or header, an unsupported
method, an oversized line, a body with no usable ``Content-Length``) are
answered by the loop as ``{"error": ...}`` JSON and close the connection.

:class:`TelemetryServer` serves four routes off whatever registry/recorder
are installed process-wide:

* ``/metrics`` — Prometheus text exposition of the installed
  :class:`~repro.observability.MetricsRegistry` snapshot;
* ``/healthz`` — liveness JSON (status, uptime, queries recorded);
* ``/varz`` — one JSON snapshot of every instrument plus process info
  (and, when a database object was handed to the server, its index
  introspection);
* ``/workload`` — the workload recorder's aggregated summary, the most
  recent records, and the slow-query log's entries with rendered traces.

The server holds no query-path state of its own: scrapes read the same
registry and recorder the engine writes, which is exactly why those are
thread-safe.  ``python -m repro.experiments serve-metrics`` wraps this in
a runnable demo service.
"""

from __future__ import annotations

import collections
import errno
import json
import queue
import selectors
import socket
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Callable, Union

from repro.observability.export import render_prometheus
from repro.observability.metrics import get_registry, record
from repro.observability.workload import get_recorder

__all__ = [
    "HTTPLoop",
    "Offload",
    "Request",
    "TelemetryServer",
    "start_telemetry_server",
]

#: Routes served; anything else is a 404.
_ROUTES = ("/metrics", "/healthz", "/varz", "/workload")

#: How many of the most recent workload records ``/workload`` inlines.
_RECENT_RECORDS = 50

#: Longest request or header line, and most header lines (the stdlib's).
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: Seconds :meth:`HTTPLoop.stop` gives queued replies (and a running
#: write) to finish.
_FLUSH_TIMEOUT = 1.0

#: Seconds the loop stops accepting after ``accept`` ran out of file
#: descriptors or buffers; the listener stays readable meanwhile, so
#: watching it would spin the loop.
_ACCEPT_BACKOFF = 0.05
_ACCEPT_EXHAUSTED = frozenset(
    {errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM}
)

_PHRASES = {status.value: status.phrase for status in HTTPStatus}

#: ``(status, content type, body)``: what a route answers.
Reply = tuple[int, str, bytes]

_JSON = "application/json; charset=utf-8"


def _error_reply(status: int, message: str) -> Reply:
    """``{"error": message}`` as the compact JSON every error reply uses."""
    body = json.dumps({"error": message}, separators=(",", ": ")) + "\n"
    return status, _JSON, body.encode("utf-8")


class Request:
    """One parsed request: header names are lower case, ``body`` is bytes.

    ``parsed_ns`` is :func:`time.perf_counter_ns` when the loop parsed it.
    """

    __slots__ = ("method", "path", "query", "headers", "body", "parsed_ns")

    def __init__(self, method: str, target: str, headers: dict, body: bytes):
        self.method = method
        self.path, _, self.query = target.partition("?")
        self.headers = headers
        self.body = body
        self.parsed_ns = time.perf_counter_ns()


class Offload:
    """A step's work for the writer thread.

    ``work()`` runs on the writer thread and returns the reply;
    ``done()`` then runs on the loop thread, before that reply goes out.
    """

    __slots__ = ("work", "done")

    def __init__(self, work: Callable[[], Reply], done: Callable[[], None]):
        self.work = work
        self.done = done


Step = Callable[[], Union[Reply, Offload]]


class _ProtocolError(Exception):
    """A request the loop answers itself, closing the connection."""

    def __init__(self, status: int, message: str, head_only: bool = False):
        super().__init__(message)
        self.status = status
        #: A HEAD request's error reply has no body.
        self.head_only = head_only


class _Conn:
    """One client connection's buffers and state."""

    __slots__ = (
        "sock", "inbuf", "scanned", "pending", "out", "close_after",
        "parked", "events", "last_active",
    )

    def __init__(self, sock: socket.socket, now: float):
        self.sock: socket.socket | None = sock
        self.inbuf = bytearray()
        #: Where to resume looking for the end of the header block.
        self.scanned = 0
        #: ``(method, target, headers, body start, body end, close)`` once
        #: the header block is parsed and the body is not all in yet.
        self.pending: tuple | None = None
        #: Reply bytes the socket has not taken yet.
        self.out: memoryview | None = None
        self.close_after = False
        #: Waiting for the writer thread's reply.
        self.parked = False
        #: The selector events watched (0: not registered).
        self.events = 0
        self.last_active = now


class HTTPLoop:
    """A nonblocking HTTP/1.1 keep-alive server on one thread.

    Subclasses set :attr:`server_name` and :attr:`methods`, and implement
    :meth:`admit`.  See the module docstring for how a round runs.
    """

    server_name = "repro"
    #: Methods :meth:`admit` accepts; any other is a 501.
    methods = frozenset({"GET"})
    #: Largest request body read; a longer declared one is refused unread.
    max_body = 1 << 20
    #: Seconds a connection may go without traffic before it is closed.
    idle_timeout = 60.0
    #: Whether :meth:`admit`'s steps may return an :class:`Offload`
    #: (then :meth:`start` runs the writer thread too).
    offloads = False

    def __init__(self, host: str, port: int):
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            # Tests and smoke jobs restart servers rapidly on one port;
            # SO_REUSEADDR keeps a TIME_WAIT socket from failing the bind.
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind((host, port))
            self.socket.listen()
        except OSError:
            self.socket.close()
            raise
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()[:2]
        #: Rounds started; :meth:`repro.serve.QueryService.stop` waits on it.
        self.rounds = 0
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ, "accept")
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._conns: set[_Conn] = set()
        #: Connections with unparsed input, in arrival order.
        self._ready: dict[_Conn, None] = {}
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._finished: collections.deque = collections.deque()
        self._now = time.monotonic()
        self._next_sweep = self._now
        self._date = (0, "")
        self._stopping = False
        #: When to watch the listener again after running out of
        #: descriptors (None: it is watched).
        self._accept_paused_until: float | None = None
        self._thread: threading.Thread | None = None
        self._writer: threading.Thread | None = None
        self._closed = False

    # -- what a subclass provides ------------------------------------------

    def admit(self, request: Request) -> Reply | Step:
        """Take a parsed request (loop thread, arrival order): its reply,
        or the step to run at its turn in the round."""
        raise NotImplementedError

    def connected(self) -> None:
        """Called on the loop thread for each accepted connection."""

    # -- lifecycle -----------------------------------------------------------

    def start(self, name: str) -> None:
        """Run the loop (and the writer thread) on daemon threads; idempotent."""
        if self._thread is not None:
            return
        if self.offloads:
            self._writer = threading.Thread(
                target=self._write_forever, name=f"{name}-writer", daemon=True
            )
            self._writer.start()
        self._thread = threading.Thread(
            target=self._serve_forever, name=name, daemon=True
        )
        self._thread.start()

    @property
    def running(self) -> bool:
        """Whether :meth:`start` has run and :meth:`stop` has not."""
        return self._thread is not None

    def wake(self) -> None:
        """Make the loop's current ``select`` return (any thread)."""
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # full: a wake-up is already pending; closed: stopped

    def stop(self) -> None:
        """Stop the loop, close every connection and the socket; idempotent.

        Replies already queued get up to :data:`_FLUSH_TIMEOUT` seconds to
        go out first.
        """
        if self._thread is not None:
            self._stopping = True
            self.wake()
            self._thread.join()
            self._thread = None
        if self._writer is not None:
            self._jobs.put(None)
            # A write still running past the drain is left to finish on its
            # daemon thread; its reply has nowhere to go.
            self._writer.join(timeout=_FLUSH_TIMEOUT)
            self._writer = None
        if not self._closed:
            self._closed = True
            for conn in list(self._conns):
                self._close(conn)
            self._selector.close()
            self.socket.close()
            self._wake_r.close()
            self._wake_w.close()

    # -- the loop ------------------------------------------------------------

    def _serve_forever(self) -> None:
        while not self._stopping:
            self._round()
        self._flush_all(time.monotonic() + _FLUSH_TIMEOUT)

    def _round(self) -> None:
        self.rounds += 1
        timeout = 0 if self._ready else min(1.0, self.idle_timeout)
        if self._accept_paused_until is not None:
            timeout = max(
                0.0, min(timeout, self._accept_paused_until - self._now)
            )
        events = self._selector.select(timeout)
        self._now = time.monotonic()
        if (
            self._accept_paused_until is not None
            and self._now >= self._accept_paused_until
        ):
            self._accept_paused_until = None
            self._selector.register(self.socket, selectors.EVENT_READ, "accept")
        for key, mask in events:
            conn = key.data
            if conn == "accept":
                self._accept()
            elif conn == "wake":
                self._collect_offloads()
            elif mask & selectors.EVENT_WRITE:
                self._flush(conn)
            else:
                self._recv(conn)
        if self._ready:
            ready, self._ready = self._ready, {}
            turns = []
            for conn in ready:
                if conn.sock is not None:
                    request = self._parse(conn)
                    if request is not None:
                        turns.append((conn, self._call(self.admit, request)))
            for conn, job in turns:
                if callable(job):
                    job = self._call(job)
                if isinstance(job, Offload):
                    if conn.sock is not None:
                        conn.parked = True
                        self._watch(conn)
                    self._jobs.put((conn, job))
                elif conn.sock is not None:
                    self._respond(conn, *job)
        if self._now >= self._next_sweep:
            self._sweep()

    @staticmethod
    def _call(fn, *args):
        """``fn(*args)``, or a 500 reply if it raised: the loop keeps going."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            return _error_reply(
                500, f"internal error: {type(exc).__name__}: {exc}"
            )

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self.socket.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                # One connection is lost (reset before it was taken, or no
                # descriptor for it); the loop serves on.
                if exc.errno in _ACCEPT_EXHAUSTED:
                    self._selector.unregister(self.socket)
                    self._accept_paused_until = self._now + _ACCEPT_BACKOFF
                return
            try:
                sock.setblocking(False)
                # Headers and body leave in one send; TCP_NODELAY covers
                # replies larger than a segment, whose tail would otherwise
                # wait out the client's delayed ACK (~40 ms).
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                sock.close()  # the peer is already gone
                continue
            conn = _Conn(sock, self._now)
            self._conns.add(conn)
            self._watch(conn)
            self.connected()

    def _recv(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
            return
        conn.inbuf += data
        conn.last_active = self._now
        self._ready[conn] = None

    def _watch(self, conn: _Conn) -> None:
        """Watch for writes while output waits, else for reads unless
        parked or its input already holds bytes left to parse.

        Input is read only while the parser waits for bytes, so a client
        that pipelines faster than it is served is held back by its
        socket buffer, not by ``conn.inbuf``.
        """
        if conn.out is not None:
            events = selectors.EVENT_WRITE
        elif conn.parked or conn in self._ready:
            events = 0
        else:
            events = selectors.EVENT_READ
        if events == conn.events or conn.sock is None:
            return
        if conn.events == 0:
            self._selector.register(conn.sock, events, conn)
        elif events == 0:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: _Conn) -> None:
        sock = conn.sock
        if sock is None:
            return
        conn.sock = None
        self._conns.discard(conn)
        self._ready.pop(conn, None)
        if conn.events:
            self._selector.unregister(sock)
            conn.events = 0
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        sock.close()

    def _sweep(self) -> None:
        """Close connections idle past :attr:`idle_timeout` (a parked one
        is waiting on the writer, not on its client)."""
        idle_timeout = self.idle_timeout
        self._next_sweep = self._now + min(1.0, idle_timeout)
        cutoff = self._now - idle_timeout
        for conn in [c for c in self._conns if c.last_active < cutoff]:
            if not conn.parked:
                self._close(conn)

    # -- parsing -------------------------------------------------------------

    def _parse(self, conn: _Conn) -> Request | None:
        """The next complete request in ``conn``'s input, or None.

        A protocol error is answered here and closes the connection.
        """
        try:
            if conn.pending is None:
                head = self._parse_head(conn)
                if head is None:
                    self._watch(conn)
                    return None
                conn.pending = head
            method, target, headers, start, end, close = conn.pending
            if len(conn.inbuf) < end:
                self._watch(conn)
                return None
            conn.pending = None
            conn.close_after = close
            body = bytes(conn.inbuf[start:end])
            del conn.inbuf[:end]
            conn.scanned = 0
            return Request(method, target, headers, body)
        except _ProtocolError as exc:
            conn.inbuf.clear()
            conn.pending = None
            conn.close_after = True
            self._respond(
                conn, *_error_reply(exc.status, str(exc)),
                head_only=exc.head_only,
            )
            return None

    def _parse_head(self, conn: _Conn) -> tuple | None:
        buf = conn.inbuf
        if buf and buf[0] in b"\r\n":  # empty lines before a request line
            del buf[: len(buf) - len(buf.lstrip(b"\r\n"))]
            conn.scanned = 0
        crlf = buf.find(b"\n\r\n", conn.scanned)
        lf = buf.find(b"\n\n", conn.scanned, None if crlf < 0 else crlf)
        if lf >= 0:
            end, start = lf, lf + 2
        elif crlf >= 0:
            end, start = crlf, crlf + 3
        else:
            conn.scanned = max(0, len(buf) - 2)
            if len(buf) > _MAX_LINE:
                newline = buf.rfind(b"\n")
                if newline < 0:
                    raise _ProtocolError(414, _PHRASES[414])
                if len(buf) - newline > _MAX_LINE:
                    raise _ProtocolError(431, "Line too long: header line")
                if buf.count(b"\n") > _MAX_HEADERS:
                    raise _ProtocolError(431, "Too many headers")
            return None
        lines = buf[:end].decode("latin-1").split("\n")
        requestline = lines[0].rstrip("\r")
        if len(requestline) > _MAX_LINE:
            raise _ProtocolError(414, _PHRASES[414])
        words = requestline.split()
        version = (1, 1)
        if len(words) >= 3:
            version = _parse_version(words[-1])
        if len(words) != 3:
            raise _ProtocolError(400, f"Bad request syntax ({requestline!r})")
        if len(lines) - 1 > _MAX_HEADERS:
            raise _ProtocolError(431, "Too many headers")
        headers: dict[str, str] = {}
        lengths = set()
        for line in lines[1:]:
            line = line.rstrip("\r")
            if len(line) > _MAX_LINE:
                raise _ProtocolError(431, "Line too long: header line")
            name, colon, value = line.partition(":")
            if not colon or not name or name != name.strip():
                raise _ProtocolError(400, f"Bad header line ({line!r})")
            name = name.lower()
            value = value.strip()
            if name == "content-length":
                lengths.add(value)
            headers.setdefault(name, value)
        method, target, _ = words
        connection = headers.get("connection", "").lower()
        close = connection == "close" or (
            version < (1, 1) and connection != "keep-alive"
        )
        if method not in self.methods:
            raise _ProtocolError(
                501, f"Unsupported method ({method!r})",
                head_only=method == "HEAD",
            )
        # The body is framed by Content-Length alone: a request the loop
        # cannot frame exactly is refused and the connection closed, so no
        # body byte is ever parsed as the next request.
        if "transfer-encoding" in headers:
            raise _ProtocolError(
                411,
                "Transfer-Encoding is not supported: send the body with "
                "a Content-Length header",
            )
        if len(lengths) > 1:
            raise _ProtocolError(
                400,
                "conflicting Content-Length headers: "
                + ", ".join(map(repr, sorted(lengths))),
            )
        length = 0
        if lengths:
            declared = lengths.pop()
            if not (declared.isascii() and declared.isdigit()):
                raise _ProtocolError(
                    400,
                    f"Content-Length must be a non-negative integer, "
                    f"got {declared!r}",
                )
            length = int(declared)
            if length > self.max_body:
                raise _ProtocolError(
                    400, f"request body over {self.max_body} bytes"
                )
        if headers.get("expect", "").lower() == "100-continue" and (
            len(buf) < start + length
        ):
            self._send(conn, b"HTTP/1.1 100 Continue\r\n\r\n")
        return method, target, headers, start, start + length, close

    # -- replies -------------------------------------------------------------

    def _respond(
        self, conn: _Conn, status: int, content_type: str, body: bytes,
        head_only: bool = False,
    ) -> None:
        now = int(time.time())
        if self._date[0] != now:
            self._date = (now, formatdate(now, usegmt=True))
        head = (
            f"HTTP/1.1 {status} {_PHRASES.get(status, '')}\r\n"
            f"Server: {self.server_name}\r\n"
            f"Date: {self._date[1]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n\r\n" if conn.close_after else "\r\n")
        ).encode("latin-1")
        self._send(conn, head if head_only else head + body)
        if conn.out is None and conn.sock is not None:
            self._idle(conn)

    def _send(self, conn: _Conn, data: bytes) -> None:
        if conn.out is not None:
            conn.out = memoryview(bytes(conn.out) + data)
            return
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return
        if sent < len(data):
            conn.out = memoryview(data)[sent:]
            self._watch(conn)

    def _flush(self, conn: _Conn) -> None:
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        conn.last_active = self._now
        if sent < len(conn.out):
            conn.out = conn.out[sent:]
            return
        conn.out = None
        self._idle(conn)

    def _idle(self, conn: _Conn) -> None:
        """``conn``'s reply is out: close it, or read its next request."""
        if conn.close_after:
            self._close(conn)
            return
        if conn.inbuf:
            self._ready[conn] = None
        self._watch(conn)

    def _flush_all(self, deadline: float) -> None:
        """On stop: send what is queued, for at most until ``deadline``."""
        if self._accept_paused_until is None:
            self._selector.unregister(self.socket)
        self._selector.unregister(self._wake_r)
        for conn in list(self._conns):
            if conn.out is None:
                self._close(conn)
        while self._conns and time.monotonic() < deadline:
            for key, _ in self._selector.select(deadline - time.monotonic()):
                key.data.close_after = True
                self._flush(key.data)

    # -- the writer thread ---------------------------------------------------

    def _write_forever(self) -> None:
        while (item := self._jobs.get()) is not None:
            conn, job = item
            self._finished.append((conn, job, self._call(job.work)))
            self.wake()

    def _collect_offloads(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except BlockingIOError:
            pass
        while self._finished:
            conn, job, reply = self._finished.popleft()
            self._call(job.done)
            conn.parked = False
            if conn.sock is not None:
                self._respond(conn, *reply)


def _parse_version(version: str) -> tuple[int, int]:
    """``"HTTP/1.1"`` -> ``(1, 1)``; a bad or 2.x version is an error."""
    if version == "HTTP/1.1":
        return 1, 1
    major, dot, minor = version[5:].partition(".")
    if not (
        version.startswith("HTTP/") and dot
        and major.isascii() and major.isdigit() and len(major) <= 10
        and minor.isascii() and minor.isdigit() and len(minor) <= 10
    ):
        raise _ProtocolError(400, f"Bad request version ({version!r})")
    number = (int(major), int(minor))
    if number >= (2, 0):
        raise _ProtocolError(505, f"Invalid HTTP version ({version[5:]})")
    return number


class _TelemetryLoop(HTTPLoop):
    """Routes one scrape for the owning :class:`TelemetryServer`."""

    server_name = "repro-telemetry/1"

    def __init__(self, telemetry: "TelemetryServer", host: str, port: int):
        super().__init__(host, port)
        self.telemetry = telemetry

    def admit(self, request: Request) -> Reply:
        return self.telemetry._route(request.path)


class TelemetryServer:
    """A running telemetry endpoint (see module docstring).

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port`).
    database:
        Optional database; when given, ``/varz`` includes its record
        count, index names and segment count under ``"database"``.
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
        self._httpd = _TelemetryLoop(self, host, port)

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
        self._httpd.start("repro-telemetry")
        return self

    def stop(self) -> None:
        """Shut the endpoint down and join its thread (idempotent)."""
        self._httpd.stop()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- routes ------------------------------------------------------------

    def _route(self, path: str) -> Reply:
        path = path.rstrip("/") or "/healthz"
        record("telemetry.requests")
        if path == "/metrics":
            record("telemetry.requests.metrics")
            body = render_prometheus(
                get_registry().snapshot(), prefix=self.prefix
            )
            return 200, "text/plain; version=0.0.4; charset=utf-8", (
                body.encode("utf-8")
            )
        if path == "/healthz":
            record("telemetry.requests.healthz")
            return _pretty_json(self.health())
        if path == "/varz":
            record("telemetry.requests.varz")
            return _pretty_json(self.varz())
        if path == "/workload":
            record("telemetry.requests.workload")
            return _pretty_json(self.workload())
        record("telemetry.requests.unknown")
        return 404, "text/plain; charset=utf-8", (
            f"404: unknown route {path!r}; try {', '.join(_ROUTES)}\n"
        ).encode("utf-8")

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
            info["shards"] = database.num_shards
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


def _pretty_json(payload: dict) -> Reply:
    body = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    return 200, _JSON, body.encode("utf-8")


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
