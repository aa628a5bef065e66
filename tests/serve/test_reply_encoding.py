"""The compact reply encoder writes the bytes ``json.dumps`` would.

Id lists stay int64 arrays until the reply; long ones are written straight
from the array.  Every payload shape a read route builds must still come out
as ``json.dumps(payload-with-lists, sort_keys=True, default=str,
separators=(",", ": ")) + "\\n"``, byte for byte.
"""

import http.client
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.synthetic import generate_uniform_table
from repro.serve import QueryService
from repro.serve.service import (
    _IDS_MARKER,
    _SHORT_IDS,
    _compact_json,
    _fast_ids,
    _ids_json,
    _ids_payload,
)
from repro.shard import ShardedDatabase

_INT64_MAX = 2**63 - 1

#: Both sides of every digit-count boundary, 9/10 up to 10**8 - 1 / 10**8.
_DIGIT_EDGES = [v for k in range(1, 9) for v in (10**k - 1, 10**k)]


def _reference(payload) -> bytes:
    """What the reply was before ids stayed arrays: lists, then json.dumps."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, list):
            return [plain(item) for item in value]
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    text = json.dumps(
        plain(payload), sort_keys=True, default=str, separators=(",", ": ")
    )
    return (text + "\n").encode("utf-8")


def _ids(values) -> np.ndarray:
    return np.unique(np.asarray(values, dtype=np.int64))


# -- payload shapes, built the way QueryService._read builds them ------------


def _query(ids, limit, index="ix"):
    payload = {
        "epoch": 7,
        "semantics": "is_match",
        "index": index,
        "kind": "bre",
        "elapsed_ms": 0.125,
        "matches": len(ids),
    }
    payload.update(_ids_payload(ids, limit))
    return payload


def _count(ids, limit, index="ix"):
    return {
        "epoch": 7,
        "semantics": "is_match",
        "index": index,
        "kind": "vafile",
        "matches": len(ids),
    }


def _both(ids, limit, index="ix"):
    certain = ids[::2]
    return {
        "epoch": 7,
        "semantics": "both",
        "index": index,
        "kind": "bee",
        "certain_matches": len(certain),
        "possible_matches": len(ids),
        "certain": _ids_payload(certain, limit),
        "possible": _ids_payload(ids, limit),
    }


def _batch(ids, limit, index="ix"):
    parts = [ids[k::8] for k in range(7)] + [ids]
    return {
        "epoch": 7,
        "semantics": "is_match",
        "results": [
            dict(index=index, **_ids_payload(part, limit)) for part in parts
        ],
    }


def _batch_both(ids, limit, index="ix"):
    parts = [ids[k::8] for k in range(7)] + [ids]
    return {
        "epoch": 7,
        "semantics": "both",
        "results": [
            dict(
                index=index,
                certain=_ids_payload(part[::3], limit),
                possible=_ids_payload(part, limit),
            )
            for part in parts
        ],
    }


_SHAPES = [_query, _count, _both, _batch, _batch_both]


@st.composite
def _id_arrays(draw):
    """Ascending unique int64 ids: runs across digit boundaries, sparse
    draws up to int64 max, and the edge values themselves."""
    length = draw(
        st.sampled_from([0, 1, _SHORT_IDS - 1, _SHORT_IDS, _SHORT_IDS + 1])
        | st.integers(0, 600)
    )
    if draw(st.booleans()):
        edge = draw(st.sampled_from([0, *_DIGIT_EDGES, _INT64_MAX - 600]))
        start = max(0, edge - draw(st.integers(0, length)))
        ids = np.arange(start, start + length, dtype=np.int64)
    else:
        top = draw(
            st.sampled_from([10, 10**4, 10**6, 10**8, 10**8 + 5, _INT64_MAX])
        )
        seed = draw(st.integers(0, 2**32 - 1))
        ids = np.random.default_rng(seed).integers(0, top, length)
    extra = draw(
        st.lists(
            st.sampled_from([0, *_DIGIT_EDGES, _INT64_MAX])
            | st.integers(0, _INT64_MAX),
            max_size=4,
        )
    )
    return _ids(np.concatenate([ids, np.asarray(extra, dtype=np.int64)]))


class TestCompactBytes:
    @settings(max_examples=300, deadline=None)
    @given(
        ids=_id_arrays(),
        shape=st.sampled_from(_SHAPES),
        limit=st.none() | st.integers(0, 700),
        index=st.sampled_from(
            ["ix", _IDS_MARKER, f"a{_IDS_MARKER}b", "ünï\"\\"]
        ),
    )
    def test_every_shape_matches_json_dumps(self, ids, shape, limit, index):
        payload = shape(ids, limit, index)
        assert _compact_json(payload) == _reference(payload)

    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize(
        "ids",
        [
            [],
            [0],
            [5],
            [123_456],
            _DIGIT_EDGES,
            [*range(_SHORT_IDS), *_DIGIT_EDGES],
            list(range(10**8 - 200, 10**8 + 50)),
            [*range(400), _INT64_MAX],
            [*range(_SHORT_IDS - 1)],
            [*range(_SHORT_IDS)],
            [*range(_SHORT_IDS + 1)],
        ],
        ids=[
            "empty", "zero", "single", "single-6-digit", "digit-edges",
            "edges-long", "around-1e8", "int64-max", "threshold-1",
            "threshold", "threshold+1",
        ],
    )
    @pytest.mark.parametrize("limit", [None, 3, _SHORT_IDS + 1])
    def test_named_id_sets(self, shape, ids, limit):
        payload = shape(_ids(ids), limit)
        assert _compact_json(payload) == _reference(payload)
        if limit == 3 and ids and shape is _query:
            assert payload["truncated"] is (len(ids) > 3)

    @pytest.mark.parametrize(
        "index", [_IDS_MARKER, f"x{_IDS_MARKER}", "\x00ids\x00"]
    )
    def test_an_index_named_like_the_marker(self, index):
        ids = _ids(range(3 * _SHORT_IDS))
        for shape in _SHAPES:
            payload = shape(ids, None, index)
            assert _compact_json(payload) == _reference(payload)


class TestFastPath:
    """The digit-table encoder takes exactly the lists it can write."""

    def test_every_digit_count_in_one_list(self):
        ids = _ids([*range(_SHORT_IDS), *_DIGIT_EDGES[:-1]])
        assert _fast_ids(ids)
        expected = json.dumps(ids.tolist(), separators=(",", ": "))
        assert _ids_json(ids) == expected.encode("ascii")

    @pytest.mark.parametrize(
        "ids",
        [
            np.arange(_SHORT_IDS - 1),              # short: json.dumps
            np.arange(10**8 - _SHORT_IDS, 10**8 + 1),  # one id of 9 digits
            np.append(np.arange(_SHORT_IDS), _INT64_MAX),
            np.arange(-1, _SHORT_IDS),               # negative
            np.arange(_SHORT_IDS)[::-1].copy(),      # not ascending
            np.arange(_SHORT_IDS, dtype=np.int32),   # not int64
        ],
        ids=["short", "9-digits", "int64-max", "negative", "descending",
             "int32"],
    )
    def test_falls_back_to_json_dumps(self, ids):
        assert not _fast_ids(ids)
        payload = {"record_ids": ids}
        assert _compact_json(payload) == _reference(payload)

    def test_long_lists_make_no_python_ints(self):
        calls = []
        tolist = np.ndarray.tolist

        class Spy(np.ndarray):
            def tolist(self):
                calls.append(len(self))
                return tolist(self)

        ids = np.arange(10 * _SHORT_IDS, dtype=np.int64).view(Spy)
        payload = _query(ids, None)
        assert _compact_json(payload) == _reference(payload)
        assert calls == [len(ids)]  # the reference's call, not the encoder's


# -- through the live service -------------------------------------------------


@pytest.fixture(scope="module")
def service():
    table = generate_uniform_table(
        600, {"a": 9, "b": 4}, {"a": 0.2, "b": 0.1}, seed=3
    )
    db = ShardedDatabase(table, num_shards=2)
    db.create_index("ix", "bre")
    svc = QueryService(database=db).start()
    yield svc
    svc.stop()


def _post(service, route, payload) -> bytes:
    conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
    try:
        conn.request("POST", route, body=json.dumps(payload))
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200, body
        return body
    finally:
        conn.close()


class TestLiveReplies:
    def test_pretty_and_ranked_stay_on_json_dumps(self, service):
        bounds = {"bounds": {"a": [1, 9]}}
        for semantics in ("is_match", "both"):
            body = _post(
                service, "/query?pretty=1", {**bounds, "semantics": semantics}
            )
            decoded = json.loads(body)
            ids = decoded.get("record_ids") or decoded["possible"]["record_ids"]
            assert len(ids) > _SHORT_IDS  # long enough for the fast path
            expected = json.dumps(decoded, sort_keys=True, indent=2) + "\n"
            assert body == expected.encode("utf-8")
        body = _post(service, "/ranked", {**bounds, "threshold": 0.0})
        decoded = json.loads(body)
        assert len(decoded["record_ids"]) > _SHORT_IDS
        expected = json.dumps(
            decoded, sort_keys=True, separators=(",", ": ")
        ) + "\n"
        assert body == expected.encode("utf-8")

    def test_compact_replies_are_the_reference_bytes(self, service):
        for route, payload in (
            ("/query", {"bounds": {"a": [1, 9]}}),
            ("/query", {"bounds": {"a": [1, 9]}, "semantics": "both"}),
            ("/query", {"bounds": {"a": [2, 8]}, "limit": _SHORT_IDS + 1}),
            ("/batch", {"queries": [{"a": [1, k]} for k in range(2, 10)]}),
            ("/boolean", {"predicate": {"not": {"atom": {
                "attribute": "b", "lo": 1, "hi": 1}}}}),
        ):
            body = _post(service, route, payload)
            expected = json.dumps(
                json.loads(body), sort_keys=True, separators=(",", ": ")
            ) + "\n"
            assert body == expected.encode("utf-8"), route
