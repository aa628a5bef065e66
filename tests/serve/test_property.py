"""Property: concurrent epoch-pinned reads are bit-identical to
single-threaded runs against the same pinned snapshots.

Hypothesis generates a random table, a random query workload, and a
random mutation script.  N reader threads repeatedly pin whatever epoch
is current and execute the whole workload under both missing semantics
while a writer thread publishes K epochs through the serialized
:class:`SnapshotWriter`.  A keeper pin taken right after each publish
retains every snapshot, so afterwards every concurrent result can be
replayed single-threaded against the exact snapshot the reader had
pinned — the arrays must match element for element.
"""

import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.table import IncompleteTable
from repro.query.model import Interval, MissingSemantics, RangeQuery
from repro.serve import EpochManager, SnapshotWriter
from repro.shard.sharded import ShardedDatabase

_READERS = 3
_READS_EACH = 4


@st.composite
def serve_cases(draw):
    # Deletes target ids < 12 and remove at most 12 rows total, so with
    # at least 30 rows every delete stays valid and the table never
    # empties regardless of interleaving.
    n = draw(st.integers(min_value=30, max_value=48))
    card_a = draw(st.integers(min_value=2, max_value=8))
    card_b = draw(st.integers(min_value=2, max_value=8))
    columns = {}
    for name, cardinality in (("a", card_a), ("b", card_b)):
        columns[name] = np.array(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=cardinality),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.int64,
        )
    schema = Schema([AttributeSpec("a", card_a), AttributeSpec("b", card_b)])
    table = IncompleteTable(schema, columns)

    def interval(cardinality):
        lo = draw(st.integers(min_value=1, max_value=cardinality))
        hi = draw(st.integers(min_value=lo, max_value=cardinality))
        return Interval(lo, hi)

    workload = [
        RangeQuery({"a": interval(card_a), "b": interval(card_b)})
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    # The mutation script: each step appends a few rows or deletes a few
    # of the first dozen ids (see the minimum table size above).
    mutations = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            k = draw(st.integers(min_value=1, max_value=5))
            mutations.append(
                (
                    "append",
                    {
                        "a": np.array(
                            draw(
                                st.lists(
                                    st.integers(0, card_a),
                                    min_size=k, max_size=k,
                                )
                            ),
                            dtype=np.int64,
                        ),
                        "b": np.array(
                            draw(
                                st.lists(
                                    st.integers(0, card_b),
                                    min_size=k, max_size=k,
                                )
                            ),
                            dtype=np.int64,
                        ),
                    },
                )
            )
        else:
            mutations.append(
                ("delete", sorted(draw(
                    st.sets(st.integers(0, 11), min_size=1, max_size=3)
                )))
            )
    return table, workload, mutations


@settings(max_examples=12, deadline=None)
@given(case=serve_cases())
def test_concurrent_pinned_reads_match_single_threaded(case):
    table, workload, mutations = case
    db = ShardedDatabase(table, num_shards=2, executor="sequential")
    db.create_index("ix", "bre")
    manager = EpochManager(db)
    writer = SnapshotWriter(manager)

    keeper_pins = {1: manager.pin()}  # retain every epoch for the replay
    observed: list[tuple[int, int, MissingSemantics, list[int]]] = []
    observed_lock = threading.Lock()
    errors: list[BaseException] = []
    start_gate = threading.Event()

    def reader():
        try:
            start_gate.wait(timeout=10)
            for _ in range(_READS_EACH):
                with manager.pin() as pin:
                    rows = []
                    for qidx, query in enumerate(workload):
                        for semantics in MissingSemantics:
                            ids = pin.database.execute(
                                query, semantics
                            ).record_ids
                            rows.append(
                                (pin.epoch, qidx, semantics,
                                 [int(i) for i in ids])
                            )
                with observed_lock:
                    observed.extend(rows)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def write_script():
        try:
            start_gate.wait(timeout=10)
            for op, arg in mutations:
                if op == "append":
                    epoch = writer.append(arg)
                else:
                    epoch = writer.delete(arg)
                # Single writer: the publish we just made is still
                # current, so this pin retains exactly that snapshot.
                keeper_pins[epoch] = manager.pin()
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(_READERS)]
    threads.append(threading.Thread(target=write_script))
    for thread in threads:
        thread.start()
    start_gate.set()
    for thread in threads:
        thread.join()
    assert not errors, errors

    # Replay every concurrent observation single-threaded against the
    # snapshot its reader had pinned.
    for epoch, qidx, semantics, got in observed:
        assert epoch in keeper_pins
        expected = keeper_pins[epoch].database.execute(
            workload[qidx], semantics
        ).record_ids
        assert got == [int(i) for i in expected], (
            f"epoch {epoch} query {qidx} {semantics}: concurrent read "
            f"diverged from single-threaded replay"
        )

    # Releasing the keeper pins reclaims every superseded snapshot.
    for pin in keeper_pins.values():
        pin.release()
    stats = manager.stats()
    assert stats.retained == 1 and stats.pinned == 0
    assert stats.gcs == len(keeper_pins) - 1
    manager.close()
