"""QueryService HTTP behaviour: routes, admission control, lifecycle."""

import contextlib
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import observability as obs
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import ReproError
from repro.observability.server import HTTPLoop, Request
from repro.query.model import MissingSemantics
from repro.serve import QueryService
from repro.serve import service as service_module
from repro.shard import ShardedDatabase, save_sharded


def _table(seed=9, n=200):
    return generate_uniform_table(
        n, {"a": 9, "b": 4}, {"a": 0.2, "b": 0.1}, seed=seed
    )


def _db(seed=9, n=200):
    db = ShardedDatabase(_table(seed, n), num_shards=2)
    db.create_index("ix", "bre")
    return db


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


def _raw_exchange(service, request: bytes) -> bytes:
    """Send raw request bytes; everything the server sends until it closes."""
    reply = b""
    with socket.create_connection(
        (service.host, service.port), timeout=10
    ) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(4096):
                reply += chunk
        except ConnectionResetError:
            pass  # closed with request bytes it never read
    return reply


def _send_posts(service, payloads):
    """One connection per payload, each with its POST /query sent, in
    order; read the replies with :func:`_response`."""
    conns = []
    for payload in payloads:
        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        conn.request("POST", "/query", body=json.dumps(payload))
        conns.append(conn)
        time.sleep(0.02)  # arrival order is the order sent
    return conns


def _response(conn):
    """``(status, decoded JSON body)`` of ``conn``'s reply; closes it."""
    try:
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@contextlib.contextmanager
def _gated_service(target, **kwargs):
    """A started service whose ``target`` method blocks until released.

    Yields ``(service, entered, release)``: ``entered`` is set when a
    request reaches the method, which then waits for ``release``.
    """
    svc = QueryService(database=_db(), **kwargs)
    owner = svc
    *parents, name = target.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    original = getattr(owner, name)
    entered, release = threading.Event(), threading.Event()

    def gated(*args, **kw):
        entered.set()
        release.wait(timeout=10)
        return original(*args, **kw)

    setattr(owner, name, gated)
    svc.start()
    try:
        yield svc, entered, release
    finally:
        release.set()
        svc.stop()


@pytest.fixture()
def service():
    svc = QueryService(database=_db()).start()
    yield svc
    svc.stop()


class TestConstruction:
    def test_exactly_one_source(self):
        with pytest.raises(ReproError, match="exactly one"):
            QueryService()
        with pytest.raises(ReproError, match="exactly one"):
            QueryService(database=_db(), directory="/nowhere")

    def test_port_zero_binds_a_real_port(self, service):
        assert service.port > 0
        assert str(service.port) in service.url

    def test_reuse_addr_is_set(self, service):
        assert service._httpd.socket.getsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR
        )

    def test_directory_mode_loads_the_save(self, tmp_path):
        with _db() as db:
            db.create_index("bee", "bee", ["a"])
            save_sharded(db, tmp_path)
        svc = QueryService(directory=tmp_path).start()
        try:
            status, body = _post(
                svc.url + "/query", {"bounds": {"a": [2, 6]}}
            )
            assert status == 200 and body["epoch"] == 1
        finally:
            svc.stop()


class TestReadRoutes:
    def test_query_matches_direct_execution(self, service):
        oracle = _db()
        for semantics in MissingSemantics:
            expected = oracle.execute({"a": (2, 6)}, semantics)
            status, body = _post(
                service.url + "/query",
                {"bounds": {"a": [2, 6]}, "semantics": semantics.value},
            )
            assert status == 200
            assert body["semantics"] == semantics.value
            assert body["matches"] == expected.num_matches
            assert body["record_ids"] == [int(i) for i in expected.record_ids]
            assert body["truncated"] is False
        oracle.close()

    def test_query_limit_truncates(self, service):
        status, body = _post(
            service.url + "/query", {"bounds": {"a": [1, 9]}, "limit": 3}
        )
        assert status == 200
        assert len(body["record_ids"]) == 3
        assert body["truncated"] is True
        assert body["matches"] > 3

    def test_count_omits_ids(self, service):
        status, body = _post(
            service.url + "/count", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200
        assert "record_ids" not in body
        assert body["matches"] > 0

    def test_batch(self, service):
        oracle = _db()
        queries = [{"a": [2, 6]}, {"b": [1, 2]}]
        status, body = _post(service.url + "/batch", {"queries": queries})
        assert status == 200
        expected = oracle.execute_batch(
            [{"a": (2, 6)}, {"b": (1, 2)}], MissingSemantics.IS_MATCH
        )
        assert [r["record_ids"] for r in body["results"]] == [
            [int(i) for i in rep.record_ids] for rep in expected
        ]
        oracle.close()

    def test_boolean(self, service):
        from repro.query.boolean import And, Atom, Not

        oracle = _db()
        predicate = And((Atom.of("a", 2, 6), Not(Atom.of("b", 1, 2))))
        expected = oracle.query_predicate(
            predicate, MissingSemantics.NOT_MATCH
        )
        status, body = _post(
            service.url + "/boolean",
            {
                "predicate": {
                    "and": [
                        {"atom": {"attribute": "a", "lo": 2, "hi": 6}},
                        {"not": {"atom": {"attribute": "b", "lo": 1, "hi": 2}}},
                    ]
                },
                "semantics": "not_match",
            },
        )
        assert status == 200
        assert body["record_ids"] == [int(i) for i in expected.record_ids]
        oracle.close()

    def test_explain(self, service):
        status, body = _post(
            service.url + "/explain", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200
        assert "shard" in body["explain"]

    def test_reads_carry_the_epoch(self, service):
        status, body = _post(
            service.url + "/query", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200 and body["epoch"] == 1
        _post(service.url + "/compact", {})
        status, body = _post(
            service.url + "/query", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200 and body["epoch"] == 2


class TestWriteRoutes:
    def test_append_then_query_sees_the_row(self, service):
        status, body = _post(
            service.url + "/append", {"rows": {"a": [7], "b": [4]}}
        )
        assert status == 200 and body["epoch"] == 2
        status, body = _post(
            service.url + "/query",
            {"bounds": {"a": [7, 7], "b": [4, 4]}},
        )
        assert 200 in body["record_ids"]

    def test_delete_and_index_ddl(self, service):
        status, body = _post(
            service.url + "/delete", {"record_ids": [0, 1]}
        )
        assert status == 200 and body["epoch"] == 2
        status, body = _post(
            service.url + "/create-index",
            {"name": "bee", "kind": "bee", "attributes": ["a"]},
        )
        assert status == 200 and body["epoch"] == 3
        status, body = _post(
            service.url + "/query",
            {"bounds": {"a": [2, 6]}, "using": "bee"},
        )
        assert status == 200 and body["index"] == "bee"
        status, body = _post(service.url + "/drop-index", {"name": "bee"})
        assert status == 200 and body["epoch"] == 4

    def test_empty_append_is_400_and_publishes_nothing(self, tmp_path):
        with _db() as db:
            save_sharded(db, tmp_path)
        svc = QueryService(directory=tmp_path).start()
        try:
            status, body = _post(
                svc.url + "/append", {"rows": {"a": [], "b": []}}
            )
            assert status == 400 and "no rows to append" in body["error"]
            status, body = _post(
                svc.url + "/query", {"bounds": {"a": [2, 6]}}
            )
            assert status == 200 and body["epoch"] == 1
        finally:
            svc.stop()
        assert [c.name for c in tmp_path.iterdir() if c.is_dir()] == [
            "gen-000001"
        ]


class TestErrors:
    def test_unknown_route_is_404(self, service):
        status, body = _get(service.url + "/nope")
        assert status == 404
        assert "/query" in body

    def test_bad_json_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/query", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        err.value.close()
        assert err.value.code == 400

    def test_unknown_semantics_is_400(self, service):
        status, body = _post(
            service.url + "/query",
            {"bounds": {"a": [1, 2]}, "semantics": "maybe"},
        )
        assert status == 400 and "semantics" in body["error"]

    def test_unknown_attribute_is_400(self, service):
        status, body = _post(
            service.url + "/query", {"bounds": {"zz": [1, 2]}}
        )
        assert status == 400

    def test_malformed_predicate_is_400(self, service):
        status, body = _post(
            service.url + "/boolean", {"predicate": {"xor": []}}
        )
        assert status == 400 and "xor" in body["error"]

    def test_missing_body_keys_are_400(self, service):
        for route, payload in (
            ("/query", {}),
            ("/batch", {"queries": []}),
            ("/append", {}),
            ("/delete", {"record_ids": []}),
            ("/create-index", {"name": "x"}),
            ("/drop-index", {}),
        ):
            status, _ = _post(service.url + route, payload)
            assert status == 400, route

    def test_expired_deadline_is_408(self, service):
        status, body = _post(
            service.url + "/query",
            {"bounds": {"a": [1, 2]}, "deadline_ms": 0.0001},
        )
        assert status == 408

    @pytest.mark.parametrize(
        ("payload", "headers", "field"),
        [
            ({"deadline_ms": "abc"}, {}, "deadline_ms"),
            ({"deadline_ms": [5]}, {}, "deadline_ms"),
            ({"deadline_ms": "inf"}, {}, "deadline_ms"),
            ({}, {"X-Deadline-Ms": "soon"}, "X-Deadline-Ms"),
            ({"limit": "x"}, {}, "limit"),
            ({"limit": -3}, {}, "limit"),
            ({"limit": 2.5}, {}, "limit"),
            ({"limit": True}, {}, "limit"),
        ],
    )
    def test_malformed_fields_are_400_naming_the_field(
        self, service, payload, headers, field
    ):
        with obs.use_registry() as registry:
            for route in ("/query", "/ranked"):
                conn = http.client.HTTPConnection(
                    service.host, service.port, timeout=10
                )
                conn.request(
                    "POST",
                    route,
                    body=json.dumps({"bounds": {"a": [1, 9]}, **payload}),
                    headers=headers,
                )
                response = conn.getresponse()
                body = json.loads(response.read())
                conn.close()
                assert response.status == 400, (route, body)
                assert field in body["error"]
        counters = registry.snapshot().counters
        assert counters["serve.errors.client"] == 2
        assert "serve.errors.server" not in counters

    @pytest.mark.parametrize(
        ("route", "payload", "field"),
        [
            ("/delete", {"record_ids": [1.7]}, "record_ids[0]"),
            ("/delete", {"record_ids": [2, True]}, "record_ids[1]"),
            ("/delete", {"record_ids": ["x"]}, "record_ids[0]"),
            ("/append", {"rows": {"a": ["q"], "b": [1]}}, "rows.a[0]"),
            ("/append", {"rows": {"a": [1], "b": [1.5]}}, "rows.b[0]"),
            ("/append", {"rows": {"a": [False], "b": [1]}}, "rows.a[0]"),
            ("/append", {"rows": {"a": [2 ** 64], "b": [1]}}, "rows.a[0]"),
            ("/query", {"bounds": {"a": [1.5, 3]}}, "bounds.a[0]"),
            ("/query", {"bounds": {"a": [1, True]}}, "bounds.a[1]"),
            ("/count", {"bounds": {"a": ["1", 3]}}, "bounds.a[0]"),
            ("/boolean",
             {"predicate": {"atom": {"attribute": "a", "lo": 2.5}}},
             "atom.lo"),
            ("/boolean",
             {"predicate": {"atom": {"attribute": "a", "lo": 1, "hi": "9"}}},
             "atom.hi"),
        ],
        ids=[
            "delete-float", "delete-bool", "delete-string",
            "append-string", "append-float", "append-bool", "append-huge",
            "bounds-float", "bounds-bool", "bounds-string",
            "atom-float", "atom-string",
        ],
    )
    def test_non_integer_json_is_400_naming_the_field(
        self, service, route, payload, field
    ):
        # A bool, float or string is never truncated to an integer: a
        # truncated [1.7] or [true] would delete row 1.
        epoch = service.epochs.current_epoch
        status, body = _post(service.url + route, payload)
        assert status == 400, body
        assert field in body["error"], body
        assert service.epochs.current_epoch == epoch  # nothing published

    @pytest.mark.parametrize(
        ("route", "payload", "field"),
        [
            ("/create-index",
             {"name": "ix", "kind": "bee", "overwrite": "false"}, "overwrite"),
            ("/create-index",
             {"name": "x", "kind": "bre", "overwrite": 1}, "overwrite"),
            ("/create-index",
             {"name": "x", "kind": "bre", "attributes": "ab"}, "attributes"),
            ("/create-index",
             {"name": "x", "kind": "bre", "attributes": []}, "attributes"),
            ("/create-index",
             {"name": "x", "kind": "bre", "attributes": ["a", 2]},
             "attributes"),
            ("/create-index",
             {"name": "x", "kind": "bre", "options": ["codec"]}, "options"),
            ("/create-index", {"name": ["x"], "kind": "bre"}, "name"),
            ("/create-index", {"name": "x", "kind": 3}, "kind"),
            ("/drop-index", {"name": ["ix"]}, "name"),
            ("/query", {"bounds": {"a": [1, 9]}, "using": ["ix"]}, "using"),
            ("/query",
             {"bounds": {"a": [1, 9]}, "using": {"name": "ix"}}, "using"),
            ("/query",
             {"bounds": {"a": [1, 9]}, "deadline_ms": True}, "deadline_ms"),
            ("/query",
             {"bounds": {"a": [1, 9]}, "deadline_ms": "50"}, "deadline_ms"),
            ("/ranked",
             {"bounds": {"a": [1, 9]}, "threshold": True}, "threshold"),
            ("/ranked",
             {"bounds": {"a": [1, 9]}, "threshold": "0.5"}, "threshold"),
            ("/batch",
             {"queries": [{"a": [1, 2]}, {"a": [1.5, 2]}]}, "queries[1].a[0]"),
            ("/batch", {"queries": [{"a": [1, 2]}, []]}, "queries[1]"),
        ],
        ids=[
            "overwrite-string", "overwrite-int", "attributes-string",
            "attributes-empty", "attributes-non-string", "options-list",
            "name-list", "kind-int", "drop-name-list", "using-list",
            "using-object", "deadline-bool", "deadline-string",
            "threshold-bool", "threshold-string", "batch-element-float",
            "batch-element-list",
        ],
    )
    def test_option_of_the_wrong_json_type_is_400_naming_it(
        self, service, route, payload, field
    ):
        # Options are taken only as their JSON types: "false" is not
        # False, "ab" is not ["a", "b"], true is not 1 ms.
        epoch = service.epochs.current_epoch
        status, body = _post(service.url + route, payload)
        assert status == 400, body
        assert field in body["error"], body
        assert service.epochs.current_epoch == epoch  # nothing published
        with service.epochs.pin() as pin:
            ix = pin.database.shards[0].database.get_index("ix")
            assert (ix.kind, pin.database.index_names) == ("bre", ("ix",))

    def test_non_numeric_content_length_is_400(self, service):
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: many\r\n\r\n"
            )
            reply = b""
            while chunk := sock.recv(4096):   # the server closes: no
                reply += chunk                # way to find the next request
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"connection: close" in head.lower()
        assert "Content-Length" in json.loads(body)["error"]

    @pytest.mark.parametrize(
        "lengths",
        [("{n}", "{m}"), ("+{n}",), ("{n}, {n}",)],
        ids=["two-different", "plus-sign", "list"],
    )
    def test_unframeable_content_length_is_400_and_closes(
        self, service, lengths
    ):
        # Two readings of the body's length would let the bytes after the
        # shorter one run as a second, smuggled request.
        body = json.dumps({"bounds": {"a": [1, 3]}}).encode("utf-8")
        smuggled = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        headers = b"".join(
            b"Content-Length: %s\r\n"
            % value.format(n=len(body), m=len(body) + len(smuggled)).encode()
            for value in lengths
        )
        reply = _raw_exchange(
            service,
            b"POST /count HTTP/1.1\r\nHost: x\r\n" + headers + b"\r\n"
            + body + smuggled,
        )
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"connection: close" in head.lower()
        # One JSON reply and nothing after it: /healthz never ran.
        assert "Content-Length" in json.loads(rest)["error"]

    def test_chunked_body_is_411_and_the_connection_closes(self, service):
        body = json.dumps({"bounds": {"a": [1, 3]}}).encode("utf-8")
        reply = _raw_exchange(
            service,
            b"POST /count HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
            # Pipelined: must not be answered, nor the chunk-size line
            # parsed as a request line.
            + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        head, _, rest = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411")
        assert b"connection: close" in head.lower()
        assert b"content-type: application/json" in head.lower()
        # One JSON reply and nothing after it.
        assert "Transfer-Encoding" in json.loads(rest)["error"]

    def test_limit_zero_returns_the_count_only(self, service):
        status, body = _post(
            service.url + "/query", {"bounds": {"a": [1, 9]}, "limit": 0}
        )
        assert status == 200
        assert body["record_ids"] == [] and body["truncated"] is True
        assert body["matches"] > 0


class TestAdmission:
    def test_queue_full_is_429(self):
        # A read holds the loop while two more and a /healthz arrive.  They
        # are parsed in the next round together; the second read has one
        # read ahead of it, over queue_limit 0.
        with _gated_service("_read", queue_limit=0) as (svc, entered, release):
            first = threading.Thread(
                target=_post, args=(svc.url + "/query", {"bounds": {"a": [1, 9]}})
            )
            first.start()
            assert entered.wait(timeout=10)
            conns = _send_posts(svc, [{"bounds": {"a": [1, 2]}}] * 2)
            health = http.client.HTTPConnection(
                svc.host, svc.port, timeout=10
            )
            health.request("GET", "/healthz")
            release.set()
            replies = [_response(conn) for conn in conns]
            health_status, _ = _response(health)
            first.join(timeout=10)
        assert [status for status, _ in replies] == [200, 429]
        assert "queue full" in replies[1][1]["error"]
        # Introspection is admission-exempt even while saturated.
        assert health_status == 200

    def test_deadline_expiring_in_the_queue_is_408(self):
        # Two reads arrive while a third holds the loop.  The second one's
        # 50 ms deadline, counted from its parse, passes while the first
        # of them runs for 150 ms.
        svc = QueryService(database=_db())
        entered, release = threading.Event(), threading.Event()
        original = svc._read

        def read(path, body):
            if body.get("tag") == "hold":
                entered.set()
                release.wait(timeout=10)
            elif body.get("tag") == "slow":
                time.sleep(0.15)
            return original(path, body)

        svc._read = read
        svc.start()
        try:
            first = threading.Thread(target=_post, args=(
                svc.url + "/query", {"bounds": {"a": [1, 9]}, "tag": "hold"}
            ))
            first.start()
            assert entered.wait(timeout=10)
            conns = _send_posts(svc, [
                {"bounds": {"a": [1, 9]}, "tag": "slow"},
                {"bounds": {"a": [1, 2]}, "deadline_ms": 50},
            ])
            release.set()
            (slow, _), (status, body) = [_response(conn) for conn in conns]
            first.join(timeout=10)
        finally:
            release.set()
            svc.stop()
        assert slow == 200
        assert status == 408 and "while queued" in body["error"]

    def test_default_service_runs_one_read_at_a_time(self):
        svc = QueryService(database=_db())
        lock = threading.Lock()
        running = []
        overlaps = []
        original = svc._read
        first_entered, others_sent = threading.Event(), threading.Event()

        def tracked_read(path, body):
            with lock:
                running.append(path)
                overlaps.append(len(running))
            try:
                if len(overlaps) == 1:
                    first_entered.set()
                    others_sent.wait(timeout=10)
                time.sleep(0.05)
                return original(path, body)
            finally:
                with lock:
                    running.remove(path)

        svc._read = tracked_read
        statuses = []

        def request(route):
            status, _ = _post(svc.url + route, {"bounds": {"a": [1, 9]}})
            statuses.append(status)

        with obs.use_registry() as registry:
            svc.start()
            try:
                first = threading.Thread(target=request, args=("/query",))
                first.start()
                assert first_entered.wait(timeout=10)
                # Sent while the first read holds the loop, so the loop
                # parses both in one round and runs them one after the
                # other.
                conns = []
                for route in ("/count", "/explain"):
                    conn = http.client.HTTPConnection(
                        svc.host, svc.port, timeout=10
                    )
                    conn.request("POST", route, body=json.dumps(
                        {"bounds": {"a": [1, 9]}}
                    ))
                    conns.append(conn)
                others_sent.set()
                statuses += [_response(conn)[0] for conn in conns]
                first.join(timeout=10)
                assert not first.is_alive()
            finally:
                others_sent.set()
                svc.stop()
            snapshot = registry.snapshot()
        assert statuses == [200, 200, 200]
        assert overlaps == [1, 1, 1]
        # The read parsed behind another in its round shows that one's
        # run as queue time.
        waits = snapshot.histograms["serve.wait_ns"]
        assert waits.count == 3 and waits.max >= 0.04e9
        assert "serve.rejected.queue_full" not in snapshot.counters

    def test_reads_proceed_while_a_write_is_mid_publish(self):
        with _gated_service(
            "writer.compact", queue_limit=0
        ) as (svc, entered, release):
            outcome = []
            writer = threading.Thread(
                target=lambda: outcome.append(_post(svc.url + "/compact", {}))
            )
            writer.start()
            assert entered.wait(timeout=10)
            # The write is in flight and the only read slot is still free.
            status, body = _post(svc.url + "/query", {"bounds": {"a": [1, 9]}})
            assert status == 200 and body["epoch"] == 1
            status, text = _get(svc.url + "/healthz")
            assert json.loads(text)["inflight"] == 1
            release.set()
            writer.join(timeout=10)
            assert not writer.is_alive()
            assert outcome[0][0] == 200 and outcome[0][1]["epoch"] == 2

    def test_draining_service_waits_for_writes_and_refuses_new_ones(self):
        with _gated_service("writer.compact") as (svc, entered, release):
            outcome = []
            writer = threading.Thread(
                target=lambda: outcome.append(_post(svc.url + "/compact", {}))
            )
            writer.start()
            assert entered.wait(timeout=10)
            stopper = threading.Thread(target=svc.stop)
            stopper.start()
            deadline = time.monotonic() + 10
            while not svc._draining and time.monotonic() < deadline:
                time.sleep(0.005)
            # Draining, but the listener stays up for the in-flight write.
            for route, payload in (
                ("/append", {"rows": {"a": [1], "b": [1]}}),
                ("/query", {"bounds": {"a": [1, 9]}}),
            ):
                status, body = _post(svc.url + route, payload)
                assert status == 503 and "draining" in body["error"]
            assert stopper.is_alive()
            release.set()
            writer.join(timeout=10)
            stopper.join(timeout=10)
            assert not writer.is_alive() and not stopper.is_alive()
            assert outcome[0][0] == 200

    def test_draining_service_rejects_with_503(self):
        svc = QueryService(database=_db()).start()
        svc.stop()
        # The admission gate flips before the listener closes; simulate a
        # request that raced past the socket by calling the gate directly.
        request = Request("POST", "/query", {}, b'{"bounds": {"a": [1, 9]}}')
        status, _, body = svc._admit(request)
        assert status == 503 and "draining" in json.loads(body)["error"]

    def test_stop_is_idempotent(self):
        svc = QueryService(database=_db()).start()
        svc.stop()
        svc.stop()


class TestHttpLayerErrors:
    """Errors the stdlib parser raises before a route runs are JSON too."""

    @pytest.mark.parametrize(
        "request_bytes, status, fragment",
        [
            (b"GET /a b HTTP/1.1\r\n\r\n", 400, "Bad request syntax"),
            (
                b"PUT /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 0\r\n\r\n",
                501,
                "Unsupported method ('PUT')",
            ),
            (
                b"GET /healthz HTTP/1.1\r\nX-Big: "
                + b"x" * 70_000
                + b"\r\n\r\n",
                431,
                "Line too long",
            ),
        ],
        ids=["malformed-request-line", "unsupported-method", "oversized-header"],
    )
    def test_error_is_json_with_the_same_status(
        self, service, request_bytes, status, fragment
    ):
        reply = _raw_exchange(service, request_bytes)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d" % status)
        headers = head.lower()
        assert b"content-type: application/json; charset=utf-8" in headers
        assert b"connection: close" in headers
        assert b"content-length: %d" % len(body) in headers
        assert fragment in json.loads(body)["error"]

    def test_head_gets_the_status_and_no_body(self, service):
        reply = _raw_exchange(service, b"HEAD /healthz HTTP/1.1\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501") and body == b""


class TestKeepAlive:
    def _request(self, conn, route, payload=None, raw=None):
        body = raw if raw is not None else json.dumps(payload or {})
        conn.request("POST", route, body=body)
        response = conn.getresponse()
        return response, response.read()

    def test_connection_is_reused_across_requests_and_errors(self, service):
        with obs.use_registry() as registry:
            conn = http.client.HTTPConnection(
                service.host, service.port, timeout=10
            )
            try:
                response, _ = self._request(
                    conn, "/query", {"bounds": {"a": [2, 6]}}
                )
                assert response.status == 200 and response.version == 11
                sock = conn.sock
                for route, kwargs, expected in (
                    ("/nope", {"payload": {"bounds": {"a": [2, 6]}}}, 404),
                    ("/query", {"raw": "not json"}, 400),
                    ("/query", {"payload": {"bounds": {"a": [1, 2]},
                                            "limit": "x"}}, 400),
                    ("/query", {"payload": {"bounds": {"a": [1, 2]},
                                            "deadline_ms": 0.0001}}, 408),
                    ("/count", {"payload": {"bounds": {"a": [2, 6]}}}, 200),
                ):
                    response, _ = self._request(conn, route, **kwargs)
                    assert response.status == expected, route
                    assert response.version == 11
                    assert conn.sock is sock, f"reconnected after {expected}"
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200 and conn.sock is sock
            finally:
                conn.close()
            counters = registry.snapshot().counters
        assert counters["serve.connections"] == 1
        assert counters["serve.requests"] == 7

    def test_oversize_body_closes_but_the_client_recovers(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(service_module, "_MAX_BODY_BYTES", 64)
        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            response, body = self._request(
                conn, "/query", {"bounds": {"a": [2, 6]}, "pad": "x" * 100}
            )
            assert response.status == 400 and b"over 64 bytes" in body
            # The unread body makes the stream unparseable: the reply says
            # so, and http.client reconnects on the next request.
            assert response.getheader("Connection") == "close"
            response, _ = self._request(
                conn, "/count", {"bounds": {"a": [2, 6]}}
            )
            assert response.status == 200
        finally:
            conn.close()

    def test_idle_connection_times_out(self, service, monkeypatch):
        monkeypatch.setattr(HTTPLoop, "idle_timeout", 0.1)
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            assert sock.recv(1) == b""   # closed by the server, not by us

    def test_compact_by_default_pretty_on_request(self, service):
        payload = {"bounds": {"a": [2, 6]}, "limit": 3}
        conn = http.client.HTTPConnection(
            service.host, service.port, timeout=10
        )
        try:
            _, compact = self._request(conn, "/query", payload)
            _, pretty = self._request(conn, "/query?pretty=1", payload)
        finally:
            conn.close()
        assert b", " not in compact and compact.count(b"\n") == 1
        assert b'\n  "record_ids": [\n' in pretty
        compact, pretty = json.loads(compact), json.loads(pretty)
        del compact["elapsed_ms"], pretty["elapsed_ms"]
        assert compact == pretty

    def test_healthz_reports_the_admission_gauges(self, service):
        status, text = _get(service.url + "/healthz")
        body = json.loads(text)
        assert status == 200
        assert body["inflight"] == 0 and body["queued"] == 0


class TestConcurrentReads:
    def test_concurrent_queries_match_oracle(self, service):
        oracle = _db()
        expected = {
            semantics: [int(i) for i in oracle.execute(
                {"a": (2, 6)}, semantics
            ).record_ids]
            for semantics in MissingSemantics
        }
        oracle.close()
        failures = []

        def worker(semantics):
            for _ in range(5):
                status, body = _post(
                    service.url + "/query",
                    {"bounds": {"a": [2, 6]}, "semantics": semantics.value},
                )
                if status != 200 or body["record_ids"] != expected[semantics]:
                    failures.append((status, body))

        threads = [
            threading.Thread(target=worker, args=(semantics,))
            for semantics in MissingSemantics
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
