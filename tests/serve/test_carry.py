"""A row write's snapshot keeps what its predecessor paid for at read time.

``SnapshotWriter.append`` / ``delete`` / ``compact`` keep the index set, so
the snapshot they publish starts with a copy of the current plans, and
each bitmap slot the current snapshot joined copies the groups of the
leading segments the write left alone.  These tests pin what that may and
may not change: answers never (every step of a write sequence against the
ground truth, forced or planned), plans ranked after a write (none), the
bits of a carried slot (those of a fresh join), what stays alive (no chain
of superseded snapshots), and DDL (a fresh memo; a pinned predecessor's is
never touched).
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.bitvector.wah import WahBitVector, join
from repro.core.segment import join_index
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable
from repro.observability import use_registry
from repro.query.boolean import And, Atom, Not, Or, evaluate_predicate
from repro.query.ground_truth import evaluate
from repro.query.model import Interval, RangeQuery, resolve_semantics
from repro.serve import EpochManager, SnapshotWriter
from repro.shard.sharded import ShardedDatabase

CARDINALITIES = {"a": 20, "b": 8}
SEMANTICS = ("is_match", "not_match", "both")


def _rows(n, seed):
    return generate_uniform_table(
        n, CARDINALITIES, {"a": 0.15, "b": 0.25}, seed=seed
    )


QUERIES = [
    RangeQuery.from_bounds({"a": (lo, lo + width), "b": (b, b + 2)})
    for lo, width, b in ((1, 3, 1), (5, 0, 2), (9, 6, 4), (14, 5, 6),
                         (2, 17, 1), (18, 2, 3))
]
PREDICATE = Or((
    And((Atom("a", Interval(3, 9)), Not(Atom("b", Interval(2, 5))))),
    Atom("a", Interval(17, 20)),
))


def _served(num_shards, n=1500):
    db = ShardedDatabase(_rows(n, seed=11), num_shards=num_shards)
    db.create_index("bre", "bre")
    db.create_index("va", "vafile")
    manager = EpochManager(db)
    return manager, SnapshotWriter(manager)


def _expected(table, item, semantics):
    bounds = resolve_semantics(semantics).bounds
    if isinstance(item, RangeQuery):
        return [evaluate(table, item, bound) for bound in bounds]
    return [evaluate_predicate(table, item, bound) for bound in bounds]


def _run_mix(db, table) -> int:
    """Every op of the fixed mix, planned and forced onto each index;
    the number of answers that disagree with the ground truth."""
    wrong = 0
    for using in (None, *db.index_names):
        for semantics in SEMANTICS:
            for query in QUERIES:
                got = db.execute(query, semantics, using=using).bound_ids
                wrong += any(
                    not np.array_equal(g, e)
                    for g, e in zip(got, _expected(table, query, semantics))
                )
            got = db.query_predicate(PREDICATE, semantics, using=using)
            wrong += any(
                not np.array_equal(g, e) for g, e in zip(
                    got.bound_ids, _expected(table, PREDICATE, semantics)
                )
            )
            for report, query in zip(
                db.execute_batch(QUERIES[::2], semantics, using=using),
                QUERIES[::2],
            ):
                wrong += any(
                    not np.array_equal(g, e) for g, e in zip(
                        report.bound_ids, _expected(table, query, semantics)
                    )
                )
    return wrong


def _replay(db, table) -> tuple[int, int]:
    """:func:`_run_mix`'s wrong answers, and the plans it ranked."""
    with use_registry() as registry:
        wrong = _run_mix(db, table)
    return wrong, registry.snapshot().counters.get("planner.rankings", 0)


class _Mirror:
    """The rows every step should leave, kept as plain columns."""

    def __init__(self, table: IncompleteTable):
        self.schema = table.schema
        self.columns = {
            name: np.asarray(table.column(name)).copy()
            for name in table.schema.names
        }

    @property
    def table(self) -> IncompleteTable:
        return IncompleteTable(self.schema, self.columns)

    def append(self, rows: IncompleteTable) -> None:
        for name in self.columns:
            self.columns[name] = np.concatenate(
                [self.columns[name], np.asarray(rows.column(name))]
            )

    def delete(self, ids) -> None:
        for name in self.columns:
            self.columns[name] = np.delete(self.columns[name], ids)


def _most_chosen(db) -> str:
    names = [
        plan[0].name for plan in db._plan_memo._plans.values()
        if plan[0] is not None and not plan[1]
    ]
    return max(set(names), key=names.count)


@pytest.mark.parametrize("num_shards", [1, 4])
def test_every_step_of_a_write_sequence_answers_right(num_shards, unit_costs):
    manager, writer = _served(num_shards)
    mirror = _Mirror(manager.current_database.table)
    assert _run_mix(manager.current_database, mirror.table) == 0
    # Three appends; the third doubles the table.
    for seed in (21, 22):
        rows = _rows(77, seed)
        writer.append(rows)
        mirror.append(rows)
        # The plans came along: replaying the mix ranks nothing.
        db = manager.current_database
        assert len(db._plan_memo) > 0
        assert _replay(db, mirror.table) == (0, 0)
    rows = _rows(manager.current_database.num_records, 23)
    writer.append(rows)
    mirror.append(rows)
    assert _run_mix(manager.current_database, mirror.table) == 0
    # A delete that hits one segment, then one that hits every segment.
    db = manager.current_database
    one = [db.segments[-1].start + 3, db.segments[-1].start + 40]
    everywhere = [segment.start + 1 for segment in db.segments]
    for ids in (one, everywhere):
        ids = sorted(ids)
        writer.delete(ids)
        mirror.delete(ids)
        assert _run_mix(manager.current_database, mirror.table) == 0
    writer.compact()
    assert _run_mix(manager.current_database, mirror.table) == 0
    writer.create_index("bee", "bee")
    db = manager.current_database
    assert len(db._plan_memo) == 0
    assert _run_mix(db, mirror.table) == 0
    # Dropping the index most plans chose: the predecessor stays pinned
    # and keeps its memo; the new snapshot plans from nothing.
    dropped = _most_chosen(db)
    with manager.pin() as pinned:
        before = dict(pinned.database._plan_memo._plans)
        writer.drop_index(dropped)
        after = manager.current_database
        assert len(after._plan_memo) == 0
        assert pinned.database._plan_memo._plans == before
        assert any(
            plan[0] is not None and plan[0].name == dropped
            for plan in before.values()
        )
    assert _run_mix(after, mirror.table) == 0
    assert dropped not in after.index_names
    assert all(
        plan[0] is None or plan[0].name != dropped
        for plan in after._plan_memo._plans.values()
    )
    manager.close()


@pytest.mark.parametrize("num_shards", [1, 4])
def test_a_replay_after_an_append_ranks_no_plan(num_shards):
    manager, writer = _served(num_shards)
    mirror = _Mirror(manager.current_database.table)
    assert _run_mix(manager.current_database, mirror.table) == 0
    rows = _rows(100, 31)
    writer.append(rows)
    mirror.append(rows)
    db = manager.current_database
    assert _replay(db, mirror.table) == (0, 0)
    manager.close()


def _carried_slots(db, name="bre") -> dict:
    """Attribute -> slots the joined index of ``name`` carries in."""
    families = db._attached(name).index._attrs
    return {attr: set(family.carried) for attr, family in families.items()}


def _assert_same_bits_as_a_fresh_join(db, name="bre") -> None:
    fresh = join_index(db.segments, db.table, name).index
    joined = db.get_index(name).index
    for attr in joined.attributes:
        for j in joined._family(attr).slots:
            assert np.array_equal(
                joined.bitmap(attr, j).words, fresh.bitmap(attr, j).words
            ), (attr, j)


def test_five_appends_keep_no_chain_and_carry_the_same_bits():
    manager, writer = _served(4)
    mirror = _Mirror(manager.current_database.table)
    superseded = []
    for seed in range(41, 46):
        db = manager.current_database
        assert _run_mix(db, mirror.table) == 0
        superseded.append(
            (weakref.ref(db), weakref.ref(db.get_index("bre").index))
        )
        with manager.pin():
            rows = _rows(50 + seed, seed)
            writer.append(rows)
            mirror.append(rows)
        del db
        db = manager.current_database
        carried = _carried_slots(db)
        assert any(carried.values())
        _assert_same_bits_as_a_fresh_join(db)
        del db
    gc.collect()
    for database, index in superseded:
        assert database() is None
        assert index() is None
    assert _run_mix(manager.current_database, mirror.table) == 0
    manager.close()


@pytest.mark.parametrize("write", ["append", "delete", "compact"])
def test_a_carried_slot_is_a_fresh_join_across_any_seam(write):
    """A delete in segment 1 leaves segments 2 and 3 off the 31-row grid,
    so the carried head of the next write ends mid-group."""
    manager, writer = _served(4)
    db = manager.current_database
    writer.delete([db.segments[1].start + k for k in (0, 2, 5)])
    db = manager.current_database
    assert db.segments[2].start % 31
    mirror = _Mirror(db.table)
    assert _run_mix(db, mirror.table) == 0
    before = db.segments
    if write == "append":
        rows = _rows(64, 51)
        writer.append(rows)
        mirror.append(rows)
    elif write == "delete":
        ids = [db.segments[3].start + 7]
        writer.delete(ids)
        mirror.delete(ids)
    else:
        writer.compact()
    db = manager.current_database
    if write != "compact":
        assert all(a is b for a, b in zip(db.segments[:3], before))
        assert any(_carried_slots(db).values())
    _assert_same_bits_as_a_fresh_join(db)
    assert _run_mix(db, mirror.table) == 0
    manager.close()


def test_a_carried_slot_decodes_only_the_rebuilt_segment():
    manager, writer = _served(4)
    db = manager.current_database
    mirror = _Mirror(db.table)
    assert _run_mix(db, mirror.table) == 0
    before = db.get_index("bre").index
    priced = {
        attr: dict(before._family(attr).unread) for attr in before.attributes
    }
    writer.append(_rows(90, 61))
    db = manager.current_database
    last = db.segments[-1].indexes["bre"].index
    joined = db._attached("bre").index
    for attr in joined.attributes:
        family = joined._family(attr)
        for j in family.carried:
            # Priced as the decode of the rebuilt segment's stream alone.
            assert family.unread[j] == last._family(attr).unread.get(j, 0)
            assert j not in priced[attr] or priced[attr][j] == 0
    stored = sum(vec.words32() for vec in last.stored_bitmaps())
    with use_registry() as registry:
        assert _run_mix(db, _Mirror(db.table).table) == 0
    decoded = registry.snapshot().counters.get("wah.words_decoded", 0)
    assert 0 < decoded <= stored
    manager.close()


@pytest.mark.parametrize("head_bits", [0, 31, 62, 45, 100, 217])
def test_join_from_a_head_copies_its_leading_rows(head_bits):
    rng = np.random.default_rng(head_bits)
    sizes = [head_bits, 93, 40, 71]
    bits = [rng.random(size) < 0.3 for size in sizes]
    whole = np.concatenate(bits)
    # The head covers more rows than it lends: only its first bits count.
    head = join([
        WahBitVector.from_bools(bits[0]),
        WahBitVector.from_bools(rng.random(50) < 0.5),
    ])
    pieces = [WahBitVector.from_bools(b) for b in bits[1:]]
    joined = join(pieces, head, head_bits)
    assert np.array_equal(joined.to_bools(), whole)
    assert np.array_equal(
        joined.words, WahBitVector.from_bools(whole).words
    )


def test_readers_racing_writes_join_carried_slots_right():
    """Readers join carried slots while the writer copies their snapshot."""
    manager, writer = _served(4, n=3000)
    errors: list[BaseException] = []
    wrong: list[tuple] = []
    stop = threading.Event()

    def reader(offset: int) -> None:
        try:
            step = 0
            while not stop.is_set():
                with manager.pin() as pinned:
                    db = pinned.database
                    query = QUERIES[(offset + step) % len(QUERIES)]
                    semantics = SEMANTICS[(offset + step) % 3]
                    got = db.execute(query, semantics).bound_ids
                    expected = _expected(db.table, query, semantics)
                    if any(not np.array_equal(g, e)
                           for g, e in zip(got, expected)):
                        wrong.append((pinned.epoch, query, semantics))
                step += 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
    try:
        for thread in threads:
            thread.start()
        for seed in range(71, 77):
            writer.append(_rows(40, seed))
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert wrong == []
    db = manager.current_database
    assert _run_mix(db, _Mirror(db.table).table) == 0
    _assert_same_bits_as_a_fresh_join(db)
    manager.close()
