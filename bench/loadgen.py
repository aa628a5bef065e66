"""Out-of-process load: the server child, closed-loop connections, the writer.

The load generator is this one process with at most ``nproc`` threads,
each owning one keep-alive connection.  Reads are a *closed loop*: a
connection sends its next request only after the previous response has
been read in full, the way a caller waiting for an id set behaves.  The
writer is on a fixed *schedule* (one op per period); its latency is timed
from the moment an op was due, so a stall is charged to the ops it
delayed, and how late the generator itself ran is reported.

CPU time and peak resident set of the process under test are read from
``/proc/<pid>``: the benchmark cannot ask the child to measure itself.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import select
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
SAMPLE_EVERY = 16
REQUEST_TIMEOUT_S = 60.0
CHILD_START_TIMEOUT_S = 60.0


def sampled(position: int) -> bool:
    """Whether op number ``position`` is verified: 1 in 16.

    The sampled slot moves by one each block of 16, so the sample walks
    over every residue of the op pattern (route mix, semantics cycle,
    index alternation) instead of always hitting the same one.
    """
    return position % SAMPLE_EVERY == (position // SAMPLE_EVERY) % SAMPLE_EVERY


def cpu_seconds(pid: int | str = "self") -> float:
    """User + system CPU time the process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water mark of the process's resident set."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Connection:
    """One keep-alive HTTP connection to the child."""

    def __init__(self, port: int):
        self._conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def request(self, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """``(status, body)``; POST when ``body`` is given, else GET."""
        if body is None:
            self._conn.request("GET", path)
        else:
            self._conn.request("POST", path, body=body,
                               headers={"Content-Type": "application/json"})
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


@contextmanager
def serving(directory: Path):
    """Run ``server_child.py`` over ``directory``; yields ``(port, pid)``.

    Returns once ``/healthz`` has answered 200.  On exit — normal or not —
    the child's stdin is closed (its signal to drain and stop) and the
    process is waited for, then killed if it will not go.
    """
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("server_child.py")), str(directory)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([child.stdout], [], [], CHILD_START_TIMEOUT_S)
        line = child.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError("server child did not report a port")
        port = json.loads(line)["port"]
        connection = Connection(port)
        try:
            status, _ = connection.request("/healthz")
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        yield port, child.pid
    finally:
        child.stdin.close()
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()


@dataclass(slots=True)
class Sample:
    """One completed (or failed) request."""

    position: int            # op number; ops[position % len(ops)] was sent
    start: float             # perf_counter when sent (reads) / due (writes)
    end: float               # perf_counter when the response was read
    ok: bool                 # HTTP 200 and no exception
    size: int = 0            # response bytes
    body: bytes | None = None  # kept for verification when sampled / a write
    late: float = 0.0        # writes: how long after due the op was sent


def encode(ops: list[dict]) -> list[tuple[str, bytes]]:
    """``(path, JSON body)`` per op, encoded once outside any timed region."""
    return [("/" + op["route"], json.dumps(op["body"]).encode("utf-8")) for op in ops]


def _call(connection: Connection, path: str, body: bytes) -> tuple[bool, bytes]:
    try:
        status, payload = connection.request(path, body)
    except (OSError, http.client.HTTPException):
        return False, b""
    return status == 200, payload


def read_loop(port: int, requests, counter, keep_going, out: list, calibrator=None) -> None:
    """Closed loop on one connection while ``keep_going(next op number)`` holds.

    ``calibrator`` (see :mod:`calibrate`) is ticked between requests, when
    the connection has nothing outstanding.
    """
    connection = Connection(port)
    try:
        while keep_going(position := next(counter)):
            path, body = requests[position % len(requests)]
            start = time.perf_counter()
            ok, payload = _call(connection, path, body)
            end = time.perf_counter()
            out.append(Sample(position, start, end, ok, len(payload),
                              payload if sampled(position) else None))
            if calibrator is not None:
                calibrator.tick(end - start)
    finally:
        connection.close()


def write_loop(port: int, requests, first_due: float, period: float,
               until: float, out: list) -> None:
    """One write per ``period`` from ``first_due``; none is sent at or after ``until``.

    A writer that has fallen behind sends the next op as soon as the last
    one returns, and its backlog is dropped at ``until``, not flushed.
    """
    connection = Connection(port)
    try:
        for position, (path, body) in enumerate(requests):
            due = first_due + position * period
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(min(delay, max(0.0, until - time.perf_counter())))
            sent = time.perf_counter()
            if sent >= until:
                break
            ok, payload = _call(connection, path, body)
            out.append(Sample(position, due, time.perf_counter(), ok,
                              len(payload), payload, late=sent - due))
    finally:
        connection.close()


def run_threads(targets) -> None:
    """Run ``(function, args)`` pairs on threads; re-raise the first failure."""
    errors: list[BaseException] = []

    def guarded(function, args):
        try:
            function(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def new_counter():
    """Op numbers shared by the reader threads (``next`` is atomic in CPython)."""
    return itertools.count()
