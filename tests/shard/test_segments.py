"""Segments read as one: joined bitmaps, one plan, row windows.

A database of several segments reads on one segment joined from them.
These tests pin the mechanism: each joined bitmap slot is the bitmap built
over the joined rows (the same canonical stream, whichever seams the
segments leave, whichever codec and on either coder), a query is planned
and scanned once over every row, and a zone map narrows the rows the
chosen index reads to the segments that can match.
"""

import numpy as np
import pytest

from repro.bitvector.wah import WahBitVector
from repro.core.engine import IncompleteDatabase
from repro.core.segment import Segment
from repro.dataset.reorder import lexicographic_order
from repro.dataset.synthetic import generate_uniform_table
from repro.observability import use_registry
from repro.query.model import RangeQuery, resolve_semantics
from repro.serve import EpochManager, SnapshotWriter
from repro.shard.sharded import ShardedDatabase

KINDS = ("bee", "bre", "bie", "bsl")


def _table(n=700, seed=3):
    # "b" has no missing value in most segments: their joins fill B_0 in.
    return generate_uniform_table(
        n, {"a": 9, "b": 4}, {"a": 0.2, "b": 0.01}, seed=seed
    )


def _same_bitmap(joined, built) -> bool:
    """Equal bits, and for WAH the same canonical stream."""
    if isinstance(built, WahBitVector):
        return joined.nbits == built.nbits and np.array_equal(
            joined.words, built.words
        )
    return joined == built


def _assert_slots_join(db: ShardedDatabase, name: str) -> None:
    engine = IncompleteDatabase(db.table)
    spec = db.segments[0].indexes[name]
    engine.create_index(name, spec.kind, spec.attributes, **spec.options)
    built = engine.get_index(name).index
    joined = db.get_index(name).index
    assert joined.num_records == built.num_records == db.num_records
    for attribute in built.attributes:
        assert joined.has_missing(attribute) == built.has_missing(attribute)
        assert joined.num_bitmaps(attribute) == built.num_bitmaps(attribute)
        for j in built._family(attribute).slots:
            assert _same_bitmap(
                joined.bitmap(attribute, j), built.bitmap(attribute, j)
            ), (attribute, j)


def _writer_seams(db: ShardedDatabase, seams: str) -> ShardedDatabase:
    """The snapshot ``seams`` names, built through the snapshot writer."""
    if seams == "aligned":
        return db
    manager = EpochManager(db)
    writer = SnapshotWriter(manager)
    if seams == "delete":  # segments 0 and 2 lose rows: unaligned seams
        writer.delete([0, 5, 6, 40, 400, 401, 402])
    elif seams == "append":
        writer.append(_table(n=45, seed=9))
    else:  # "compact" after an append and a delete
        writer.append(_table(n=45, seed=9))
        writer.delete([3, 200, 201])
        writer.compact()
    return manager.current_database


@pytest.mark.parametrize("coder", ["numpy", "python"], indirect=True)
@pytest.mark.parametrize("codec", ["wah", "bbc", "none"])
@pytest.mark.parametrize("seams", ["aligned", "delete", "append", "compact"])
def test_joined_slot_is_the_bitmap_over_the_joined_rows(codec, seams, coder):
    db = ShardedDatabase(_table(), num_shards=4)
    for kind in KINDS:
        db.create_index(kind, kind, codec=codec)
    db = _writer_seams(db, seams)
    starts = [segment.start for segment in db.segments]
    if seams in ("aligned", "append", "compact"):
        assert all(start % 31 == 0 for start in starts)
    else:
        assert any(start % 31 for start in starts)
    for kind in KINDS:
        _assert_slots_join(db, kind)


def test_any_seam_offset_joins():
    """Segments of every length 1..31 around a seam join exactly."""
    table = _table(n=200)
    for first in range(1, 32):
        segments = [
            Segment(0, table.take(np.arange(lo, hi)))
            for lo, hi in ((0, first), (first, 2 * first + 5),
                           (2 * first + 5, 200))
        ]
        db = IncompleteDatabase.from_segments([
            segment.with_index(segment.build("bre", "bre"))
            for segment in segments
        ])
        assert [segment.start for segment in db.segments] == [
            0, first, 2 * first + 5
        ]
        _assert_slots_join(db, "bre")


def test_a_joined_slot_is_held_once():
    """The join keeps one decoded copy: the segments hold only streams."""
    db = ShardedDatabase(_table(), num_shards=4)
    db.create_index("bre", "bre")
    joined = db.get_index("bre").index
    vec = joined._family("a").bitmap(3)
    assert vec._groups is not None
    for segment in db.segments:
        part = segment.indexes["bre"].index.bitmap("a", 3)
        assert part._groups is None and part._words is not None
    # The joined table's columns are the segments' rows, held once.
    column = db.table.column("a")
    for segment in db.segments:
        assert np.shares_memory(segment.table.column("a"), column)


def _vafile_db(table, num_shards, unit_costs):
    from repro.core.planner import UnitCosts, Work

    unit_costs(bre=UnitCosts(ns=Work(queries=1e9), spread=0.0))
    db = (
        IncompleteDatabase(table) if num_shards is None
        else ShardedDatabase(table, num_shards=num_shards)
    )
    db.create_index("bre", "bre")
    db.create_index("va", "vafile")
    return db


@pytest.mark.parametrize("semantics", ["is_match", "not_match", "both"])
def test_four_segments_plan_once_and_scan_every_row_once(semantics, unit_costs):
    table = _table(n=2000)
    query = {"a": (2, 7), "b": (1, 3)}
    counters = {}
    for tier, num_shards in (("engine", None), ("segments", 4)):
        db = _vafile_db(table, num_shards, unit_costs)
        with use_registry() as registry:
            report = db.execute(query, semantics)
        counters[tier] = registry.snapshot().counters
        assert report.index_name == "va"
    for tier in counters:
        assert counters[tier]["planner.rankings"] == 1
        assert counters[tier]["engine.queries"] == 1
        assert counters[tier]["vafile.codes_scanned"] == table.num_records * 2
    assert counters["segments"]["shard.fanout_tasks"] == 4
    assert counters["segments"]["shard.pruned"] == 0


@pytest.fixture(scope="module")
def sorted_table():
    table = generate_uniform_table(
        3000, {"a": 40, "b": 6}, {"a": 0.0, "b": 0.3}, seed=11
    )
    return table.take(lexicographic_order(table, ["a"]))


@pytest.mark.parametrize("semantics", ["is_match", "not_match", "both"])
@pytest.mark.parametrize("kind", ["vafile", "bre", "scan"])
def test_a_row_window_reads_only_the_surviving_segments(
    sorted_table, kind, semantics
):
    engine = IncompleteDatabase(sorted_table)
    db = ShardedDatabase(sorted_table, num_shards=6)
    if kind != "scan":
        engine.create_index("ix", kind)
        db.create_index("ix", kind)
    query = {"a": (14, 16), "b": (2, 5)}
    start, stop, skipped = db._zone(
        RangeQuery.from_bounds(query), resolve_semantics(semantics)
    )
    surviving = [k for k in range(db.num_shards) if k not in skipped]
    assert 1 <= len(surviving) <= 2
    with use_registry() as registry:
        got = db.execute(query, semantics)
    want = engine.execute(query, semantics)
    assert len(got.bound_ids) == len(want.bound_ids)
    for mine, theirs in zip(got.bound_ids, want.bound_ids):
        assert np.array_equal(mine, theirs)
    assert got.num_pruned == len(skipped) == db.num_shards - len(surviving)
    counters = registry.snapshot().counters
    assert counters["shard.fanout_tasks"] == len(surviving)
    if kind == "vafile":
        assert counters["vafile.codes_scanned"] == (stop - start) * 2
    if kind == "bre":
        # Every operand is a window of whole 31-row groups around the span.
        with use_registry() as registry:
            engine.execute(query, semantics)
        full = registry.snapshot().counters["bitmap.words_processed"]
        assert counters["bitmap.words_processed"] < full
