"""The benchmark's own answer oracle: plain numpy over its own columns.

Shares no code with the program under test — in particular nothing from
``repro.query.ground_truth`` or ``repro.query.boolean`` — so an evaluator
bug cannot hide behind an oracle that repeats it.

Every node evaluates to a ``(certain, possible)`` pair of boolean masks:

* an atom ``lo <= A <= hi`` is *certain* where the value is present and
  inside, *possible* where it is inside or missing (value 0);
* AND / OR combine the pairs bound by bound;
* NOT swaps them: ``certain(not p) = not possible(p)`` and
  ``possible(not p) = not certain(p)``.

``not_match`` reads the certain bound, ``is_match`` the possible bound,
``both`` the pair.  :class:`Mirror` replays the writer's appends, deletes
(dense renumbering) and compactions so that a read can be checked against
the table of the epoch its response names.
"""

from __future__ import annotations

import zlib

import numpy as np


def _atom(columns, name: str, lo: int, hi: int):
    column = columns[name]
    certain = (column >= lo) & (column <= hi)   # lo >= 1, so 0 is never inside
    return certain, certain | (column == 0)


def _tree(columns, node: dict):
    (op, value), = node.items()
    if op == "atom":
        return _atom(columns, value["attribute"], value["lo"], value["hi"])
    if op == "not":
        certain, possible = _tree(columns, value)
        return ~possible, ~certain
    pairs = [_tree(columns, child) for child in value]
    combine = np.logical_and if op == "and" else np.logical_or
    return (combine.reduce([p[0] for p in pairs]),
            combine.reduce([p[1] for p in pairs]))


def _range(columns, bounds: dict):
    return _tree(columns, {"and": [
        {"atom": {"attribute": name, "lo": lo, "hi": hi}}
        for name, (lo, hi) in bounds.items()
    ]})


def expected(columns, op: dict) -> list[np.ndarray]:
    """The op's answer as a flat list of ascending id arrays.

    One array per query for ``is_match`` / ``not_match``, a certain then a
    possible array per query for ``both``; /batch concatenates its queries.
    """
    body = op["body"]
    if op["route"] == "batch":
        pairs = [_range(columns, q) for q in body["queries"]]
    elif op["route"] == "boolean":
        pairs = [_tree(columns, body["predicate"])]
    else:
        pairs = [_range(columns, body["bounds"])]
    semantics = body["semantics"]
    answer = []
    for certain, possible in pairs:
        if semantics != "is_match":
            answer.append(np.flatnonzero(certain))
        if semantics != "not_match":
            answer.append(np.flatnonzero(possible))
    return answer


def from_reports(op: dict, reports) -> list[np.ndarray]:
    """A library result (one report, or a list for /batch) in the same shape."""
    if op["route"] != "batch":
        reports = [reports]
    answer = []
    for report in reports:
        if op["body"]["semantics"] == "both":
            answer += [report.certain_ids, report.possible_ids]
        else:
            answer.append(report.record_ids)
    return answer


def from_payload(op: dict, payload: dict) -> list:
    """A decoded HTTP response in the same shape; /count yields bare counts."""
    results = payload["results"] if op["route"] == "batch" else [payload]
    both = op["body"]["semantics"] == "both"
    answer = []
    for result in results:
        if op["route"] == "count":
            answer += ([result["certain_matches"], result["possible_matches"]]
                       if both else [result["matches"]])
        elif both:
            answer += [result["certain"]["record_ids"], result["possible"]["record_ids"]]
        else:
            answer.append(result["record_ids"])
    return answer


def fingerprint(answer: list) -> list[tuple[int, int]]:
    """``(length, crc32)`` per id array: what a measured run keeps of an answer."""
    return [(len(ids), zlib.crc32(np.ascontiguousarray(ids, dtype=np.int64).tobytes()))
            for ids in answer]


def agree(got: list, want: list[np.ndarray]) -> bool:
    """Whether an answer equals the oracle's; a bare count is compared as one."""
    if len(got) != len(want):
        return False
    for ours, theirs in zip(got, want):
        if isinstance(ours, int):
            if ours != len(theirs):
                return False
        elif len(ours) != len(theirs) or not np.array_equal(
                np.asarray(ours, dtype=np.int64), theirs):
            return False
    return True


class Mirror:
    """The table as of every published epoch, replayed from the write ops."""

    def __init__(self, columns: dict, epoch: int):
        self._epochs = {epoch: columns}
        self.latest = epoch

    def columns(self, epoch: int) -> dict:
        return self._epochs[epoch]

    def apply(self, op: dict, epoch: int) -> None:
        """Record the table ``op`` produced; ``epoch`` is what the service named."""
        current = self._epochs[self.latest]
        if op["route"] == "append":
            rows = op["body"]["rows"]
            current = {name: np.concatenate([col, np.asarray(rows[name], dtype=col.dtype)])
                       for name, col in current.items()}
        elif op["route"] == "delete":
            ids = np.asarray(op["body"]["record_ids"], dtype=np.int64)
            current = {name: np.delete(col, ids) for name, col in current.items()}
        # compact: same rows, new epoch
        self._epochs[epoch] = current
        self.latest = epoch
