"""The one-thread HTTP loop under awkward clients.

Idle, slow, pipelining, non-reading and vanishing clients, a listener
out of file descriptors, a deadline that passes inside a round, the
service's fixed thread count, and exact counters with more clients than
cores.
"""

import errno
import http.client
import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.dataset.synthetic import generate_uniform_table
from repro.serve import QueryService
from repro.shard import ShardedDatabase


def _db(n=200):
    table = generate_uniform_table(
        n, {"a": 9, "b": 4}, {"a": 0.2, "b": 0.1}, seed=9
    )
    db = ShardedDatabase(table, num_shards=2)
    db.create_index("ix", "bre")
    return db


def _serve(db, tags=None):
    """A started service whose ``_read`` first runs ``tags[body["tag"]]``."""
    svc = QueryService(database=db)
    original = svc._read

    def read(path, body):
        action = (tags or {}).get(body.get("tag"))
        if action is not None:
            action()
        return original(path, body)

    svc._read = read
    return svc.start()


@pytest.fixture()
def service():
    svc = _serve(_db())
    yield svc
    svc.stop()


def _connect(service, **kwargs):
    return http.client.HTTPConnection(
        service.host, service.port, timeout=10, **kwargs
    )


def _post(conn, route, payload):
    conn.request("POST", route, body=json.dumps(payload))
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def _request_bytes(route, payload):
    body = json.dumps(payload).encode("utf-8")
    return (
        f"POST {route} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def _read_reply(sock, buffered=b""):
    """One reply off a raw socket: ``(status, body, bytes left over)``."""
    data = buffered
    while b"\r\n\r\n" not in data:
        data += sock.recv(65536)
    head, _, data = data.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":")[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    while len(data) < length:
        data += sock.recv(65536)
    return int(head.split()[1]), data[:length], data[length:]


def _new_threads(before):
    return sorted(t.name for t in threading.enumerate() if t not in before)


def test_idle_keep_alive_connections_add_no_thread(service):
    before = threading.active_count()
    conns = [_connect(service) for _ in range(64)]
    try:
        for conn in conns:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
        assert threading.active_count() == before
        # Every connection is still open and still served.
        assert _post(conns[-1], "/count", {"bounds": {"a": [1, 9]}})[0] == 200
    finally:
        for conn in conns:
            conn.close()


def test_a_request_sent_a_byte_at_a_time_holds_no_one_up(service):
    request = _request_bytes("/count", {"bounds": {"a": [2, 6]}})
    finished = threading.Event()
    slow_reply = []

    def dribble():
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            for i in range(len(request)):
                sock.sendall(request[i:i + 1])
                time.sleep(0.01)
            slow_reply.append(_read_reply(sock)[:2])
        finished.set()

    thread = threading.Thread(target=dribble)
    thread.start()
    conn = _connect(service)
    try:
        time.sleep(0.05)  # the slow request is under way
        statuses = [
            _post(conn, "/count", {"bounds": {"a": [1, i % 9 + 1]}})[0]
            for i in range(20)
        ]
        assert not finished.is_set()
    finally:
        conn.close()
        thread.join(timeout=10)
    assert statuses == [200] * 20
    status, body = slow_reply[0]
    assert status == 200 and "matches" in json.loads(body)


def test_pipelined_requests_are_answered_in_order(service):
    with socket.create_connection(
        (service.host, service.port), timeout=10
    ) as sock:
        sock.sendall(
            _request_bytes("/count", {"bounds": {"a": [2, 6]}})
            + b"GET /epochs HTTP/1.1\r\nHost: x\r\n\r\n"
            + _request_bytes("/query", {"bounds": {"a": [1, 2]}, "limit": 1})
        )
        first_status, first, rest = _read_reply(sock)
        second_status, second, rest = _read_reply(sock, rest)
        third_status, third, rest = _read_reply(sock, rest)
    assert (first_status, second_status, third_status) == (200, 200, 200)
    assert "record_ids" not in json.loads(first)
    assert json.loads(second)["current_epoch"] == 1
    assert len(json.loads(third)["record_ids"]) == 1
    assert rest == b""


def test_a_pipelining_client_is_held_back_by_its_socket(service):
    # ~4 MB of pipelined requests, read as they are answered: the loop
    # reads a connection only while its parser waits for bytes, so the
    # input buffer never holds more than one recv past a request.
    request = (
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: "
        + b"x" * 4000 + b"\r\n\r\n"
    )
    count = 1000
    loop = service._httpd
    high = [0]
    original = loop._recv

    def recv(conn):
        original(conn)
        high[0] = max(high[0], len(conn.inbuf))

    loop._recv = recv
    with socket.create_connection(
        (service.host, service.port), timeout=10
    ) as sock:
        sender = threading.Thread(target=sock.sendall, args=(request * count,))
        sender.start()
        replies = b""
        while replies.count(b"HTTP/1.1 200 OK\r\n") < count:
            chunk = sock.recv(65536)
            assert chunk, "the service closed the connection"
            replies += chunk
        sender.join(timeout=10)
    assert high[0] < 256 * 1024


def test_a_listener_out_of_descriptors_backs_off_and_serves_on(
    service, monkeypatch
):
    listener = service._httpd.socket
    original = socket.socket.accept
    failing_until = time.monotonic() + 0.2
    failures = []

    def accept(self):
        if self is listener and time.monotonic() < failing_until:
            failures.append(time.monotonic())
            raise OSError(errno.EMFILE, "Too many open files")
        return original(self)

    monkeypatch.setattr(socket.socket, "accept", accept)
    conn = _connect(service)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        assert response.status == 200
    finally:
        conn.close()
    # The listener stayed readable throughout: the loop paused rather
    # than retrying it every round.
    assert 1 <= len(failures) <= 10
    assert service._httpd._thread.is_alive()


@pytest.fixture(scope="module")
def big_db_service():
    """A service whose ``/batch`` below answers with several MB."""
    svc = _serve(_db(n=50_000))
    yield svc
    svc.stop()


#: Twenty whole-domain queries: about 6 MB of ids.
_BIG_BATCH = {"queries": [{"a": [1, 9]}] * 20}


def _small_receive_buffer_socket(service):
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(10)
    sock.connect((service.host, service.port))
    return sock


def test_a_client_that_never_reads_stalls_no_one(big_db_service):
    service = big_db_service
    with _small_receive_buffer_socket(service) as stuck:
        stuck.sendall(_request_bytes("/batch", _BIG_BATCH))
        deadline = time.monotonic() + 10
        while not any(
            conn.out is not None for conn in list(service._httpd._conns)
        ):
            assert time.monotonic() < deadline, "the reply never backed up"
            time.sleep(0.01)
        conn = _connect(service)
        try:
            for _ in range(5):
                assert _post(conn, "/count", {"bounds": {"a": [2, 6]}})[0] == 200
        finally:
            conn.close()


def test_a_client_gone_mid_reply_leaves_the_loop_serving(big_db_service):
    service = big_db_service
    sock = _small_receive_buffer_socket(service)
    sock.sendall(_request_bytes("/batch", _BIG_BATCH))
    assert sock.recv(1024).startswith(b"HTTP/1.1 200")
    # Close with a reset, the reply mostly unsent.
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()
    conn = _connect(service)
    try:
        assert _post(conn, "/count", {"bounds": {"a": [2, 6]}})[0] == 200
    finally:
        conn.close()
    deadline = time.monotonic() + 10
    while len(service._httpd._conns) > 0:
        assert time.monotonic() < deadline, "the reset connection stayed"
        time.sleep(0.01)
    assert service._httpd._thread.is_alive()


def test_a_deadline_passes_behind_two_slow_reads_in_one_round():
    held, release = threading.Event(), threading.Event()

    def hold():
        held.set()
        release.wait(timeout=10)

    svc = _serve(_db(), tags={"hold": hold, "slow": lambda: time.sleep(0.08)})
    try:
        holder = _connect(svc)
        holder.request("POST", "/count", body=json.dumps(
            {"bounds": {"a": [1, 9]}, "tag": "hold"}
        ))
        assert held.wait(timeout=10)
        # Sent while the loop is held, so parsed in one round, in order.
        # Either slow read alone (80 ms) fits in the 120 ms deadline.
        conns = []
        for payload in (
            {"bounds": {"a": [1, 9]}, "tag": "slow"},
            {"bounds": {"a": [1, 9]}, "tag": "slow"},
            {"bounds": {"a": [1, 2]}, "deadline_ms": 120},
        ):
            conn = _connect(svc)
            conn.request("POST", "/count", body=json.dumps(payload))
            conns.append(conn)
            time.sleep(0.02)
        release.set()
        replies = []
        for conn in conns:
            response = conn.getresponse()
            replies.append((response.status, json.loads(response.read())))
            conn.close()
        assert holder.getresponse().status == 200
        holder.close()
    finally:
        release.set()
        svc.stop()
    assert [status for status, _ in replies] == [200, 200, 408]
    assert "while queued" in replies[2][1]["error"]


def test_the_service_runs_a_loop_and_a_writer_whatever_the_connections():
    before = set(threading.enumerate())
    svc = _serve(_db())
    try:
        assert _new_threads(before) == ["repro-serve", "repro-serve-writer"]
        conns = [_connect(svc) for _ in range(8)]
        results = []

        def drive(conn, i):
            for j in range(5):
                if i == 0 and j == 0:
                    results.append(_post(conn, "/compact", {})[0])
                else:
                    results.append(_post(
                        conn, "/query", {"bounds": {"a": [1, j + 1]}}
                    )[0])

        threads = [
            threading.Thread(target=drive, args=(conn, i))
            for i, conn in enumerate(conns)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert results == [200] * 40
        assert _new_threads(before) == ["repro-serve", "repro-serve-writer"]
        for conn in conns:
            conn.close()
    finally:
        svc.stop()
    assert _new_threads(before) == []


def test_reads_and_writes_from_many_clients_keep_the_counters_exact():
    # Loop and writer share the reply queue and the wake-up socket; with
    # more clients than cores and a short switch interval, a lost update
    # would leave a reply unsent, an epoch skipped or a gauge off zero.
    from repro import observability as obs

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with obs.use_registry() as registry:
            svc = _serve(_db())
            try:
                results, epochs = [], []

                def drive(i):
                    conn = _connect(svc)
                    try:
                        for j in range(6):
                            if j == i % 3:
                                status, body = _post(conn, "/append", {
                                    "rows": {"a": [i % 9 + 1], "b": [1]},
                                })
                                epochs.append(body.get("epoch"))
                            else:
                                status, _ = _post(conn, "/count", {
                                    "bounds": {"a": [1, j + 1]},
                                })
                            results.append(status)
                    finally:
                        conn.close()

                threads = [
                    threading.Thread(target=drive, args=(i,)) for i in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert results == [200] * 36
                assert sorted(epochs) == list(range(2, 8))
                assert (svc._inflight, svc._queued) == (0, 0)
            finally:
                svc.stop()
            gauges = registry.snapshot().gauges
    finally:
        sys.setswitchinterval(interval)
    assert gauges["serve.inflight"] == 0 and gauges["serve.queued"] == 0
