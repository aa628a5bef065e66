"""SnapshotWriter: each mutation publishes a correct new epoch.

A mutation rebuilds only the shards whose rows it changes; the rest are
shared with the previous snapshot and their files hard-linked.
"""

import os

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import concat_tables
from repro.errors import QueryError, ReproError
from repro.observability import use_registry
from repro.query.model import MissingSemantics
from repro.serve import EpochManager, SnapshotWriter
from repro.shard import (
    SequentialShardExecutor,
    ShardedDatabase,
    load_sharded,
    save_sharded,
)


def _table(seed=5, n=150):
    return generate_uniform_table(
        n, {"a": 9, "b": 4}, {"a": 0.2, "b": 0.1}, seed=seed
    )


@pytest.fixture()
def served():
    db = ShardedDatabase(_table(), num_shards=2)
    db.create_index("ix", "bre")
    manager = EpochManager(db)
    yield manager, SnapshotWriter(manager)
    manager.close()


class TestMutations:
    def test_append_extends_with_stable_ids(self, served):
        manager, writer = served
        before = manager.current_database
        n = before.num_records
        old = before.execute({"a": (2, 6)}).record_ids
        epoch = writer.append({"a": [3, 4, 0], "b": [1, 2, 3]})
        assert epoch == 2 and manager.current_epoch == 2
        db = manager.current_database
        assert db.num_records == n + 3
        # Existing ids are unchanged; only new ids may join the result.
        new = db.execute({"a": (2, 6)}).record_ids
        assert set(old) <= set(new)
        assert all(i >= n for i in set(new) - set(old))
        # Appended rows are queryable, 0 meaning missing.
        assert n in db.execute({"a": (3, 3), "b": (1, 1)}).record_ids
        not_match = db.execute(
            {"a": (1, 9)}, MissingSemantics.NOT_MATCH
        ).record_ids
        assert n + 2 not in not_match  # the a=0 row is excluded

    def test_writes_publish_from_a_custom_executor_instance(self):
        """The next snapshot is not rebuilt from the executor's name.

        Each snapshot gets its own inline executor; the caller's instance
        serves the epoch it was given to and is closed with it.
        """

        class Mine(SequentialShardExecutor):
            name = "mine"
            closed = False

            def close(self):
                self.closed = True

        mine = Mine()
        first = ShardedDatabase(_table(), num_shards=2, executor=mine)
        first.create_index("ix", "bre")
        manager = EpochManager(first)
        try:
            writer = SnapshotWriter(manager)
            assert writer.append({"a": [3, 4, 0], "b": [1, 2, 3]}) == 2
            assert mine.closed  # epoch 1 retired, unpinned
            db = manager.current_database
            assert db.executor.name == "sequential"
            assert db.num_records == 153
            assert 150 in db.execute({"a": (3, 3), "b": (1, 1)}).record_ids
            assert writer.delete([150, 151, 152]) == 3
            assert manager.current_database.num_records == 150
            assert writer.compact() == 4
            db = manager.current_database
            assert db.index_names == ("ix",)
            with manager.pin() as pinned:
                assert pinned.epoch == 4
                assert pinned.database.count({"a": (1, 9)}) == db.count(
                    {"a": (1, 9)}
                )
        finally:
            manager.close()

    def test_append_table_form(self, served):
        manager, writer = served
        writer.append(_table(seed=6, n=10))
        assert manager.current_database.num_records == 160

    def test_delete_removes_and_renumbers(self, served):
        manager, writer = served
        before = manager.current_database
        values = np.asarray(before.table.column("a"), dtype=np.int64).copy()
        mask = np.asarray(before.table.missing_mask("a")).copy()
        writer.delete([0, 5, 149])
        db = manager.current_database
        assert db.num_records == 147
        keep = np.setdiff1d(np.arange(150), [0, 5, 149])
        after = np.asarray(db.table.column("a"), dtype=np.int64)
        assert np.array_equal(after, values[keep])
        assert np.array_equal(
            np.asarray(db.table.missing_mask("a")), mask[keep]
        )

    def test_delete_validates_ids(self, served):
        _, writer = served
        with pytest.raises(QueryError, match="no record ids"):
            writer.delete([])
        with pytest.raises(QueryError, match=r"\[0, 150\)"):
            writer.delete([150])
        with pytest.raises(QueryError):
            writer.delete([-1])

    def test_delete_everything_is_refused(self, served):
        manager, writer = served
        with pytest.raises(ReproError, match="empty snapshot"):
            writer.delete(range(150))
        assert manager.current_epoch == 1  # nothing published

    def test_compact_republishes_identical_results(self, served):
        manager, writer = served
        expected = {
            semantics: manager.current_database.execute(
                {"a": (2, 6)}, semantics
            ).record_ids
            for semantics in MissingSemantics
        }
        assert writer.compact() == 2
        db = manager.current_database
        for semantics, exp in expected.items():
            assert np.array_equal(
                db.execute({"a": (2, 6)}, semantics).record_ids, exp
            )

    def test_index_ddl_carries_and_replaces(self, served):
        manager, writer = served
        epoch = writer.create_index("bee", "bee", ["a"])
        assert epoch == 2
        db = manager.current_database
        assert sorted(db.index_names) == ["bee", "ix"]
        with pytest.raises(ReproError, match="already exists"):
            writer.create_index("bee", "bee", ["a"])
        writer.create_index("bee", "bee", ["b"], overwrite=True)
        writer.drop_index("ix")
        assert manager.current_database.index_names == ("bee",)
        with pytest.raises(ReproError, match="no index named"):
            writer.drop_index("ix")
        # Mutations keep the surviving index working.
        writer.append({"a": [5], "b": [2]})
        report = manager.current_database.execute(
            {"b": (2, 2)}, using="bee"
        )
        assert report.index_name == "bee"

    def test_mutations_preserve_index_options(self, served):
        manager, writer = served
        writer.create_index("bbc", "bre", codec="bbc")
        writer.append({"a": [5], "b": [2]})
        for shard in manager.current_database.shards:
            attached = shard.database.get_index("bbc")
            assert attached.options == {"codec": "bbc"}
            assert attached.index.codec == "bbc"


#: The ``(missing rates, rows, seed)`` of each ``SnapshotWriter.append``
#: made to the base table's rows: an ordinary chunk; rows that bring the
#: complete attribute ``c`` its first missing value (its missing bitmap
#: ``B_0`` appears with them); or three appends in a row, the last of them
#: bringing ``c`` its first missing value.
_APPEND_CHUNKS = {
    "chunk": [({"a": 0.4, "b": 0.0, "c": 0.0}, 150, 72)],
    "first_missing": [({"a": 0.0, "b": 0.0, "c": 0.5}, 100, 74)],
    "repeated": [
        ({"a": 0.3, "b": 0.2, "c": 0.0}, 60, 80),
        ({"a": 0.3, "b": 0.2, "c": 0.0}, 60, 81),
        ({"a": 0.3, "b": 0.2, "c": 0.3}, 60, 82),
    ],
}
_APPEND_CARDINALITIES = {"a": 10, "b": 3, "c": 6}
_APPEND_QUERIES = ({"a": (2, 7), "b": (1, 2)}, {"c": (3, 6)}, {"a": (1, 4)})


class TestAppendEqualsRebuild:
    @pytest.mark.parametrize("codec", ["none", "wah", "bbc"])
    @pytest.mark.parametrize("kind", ["bee", "bre", "bie", "bsl"])
    @pytest.mark.parametrize("case", sorted(_APPEND_CHUNKS))
    def test_append_equals_rebuild(self, case, kind, codec):
        base = generate_uniform_table(
            400, _APPEND_CARDINALITIES, {"a": 0.2, "b": 0.1, "c": 0.0},
            seed=71,
        )
        chunks = [
            generate_uniform_table(n, _APPEND_CARDINALITIES, rates, seed=seed)
            for rates, n, seed in _APPEND_CHUNKS[case]
        ]
        db = ShardedDatabase(base, num_shards=2)
        db.create_index("ix", kind, codec=codec)
        assert not db.shards[-1].database.get_index("ix").index.has_missing(
            "c"
        )
        manager = EpochManager(db)
        try:
            writer = SnapshotWriter(manager)
            for chunk in chunks:
                writer.append(chunk)
            fresh = IncompleteDatabase(concat_tables(base, *chunks))
            fresh.create_index("ix", kind, codec=codec)
            appended = manager.current_database
            last = appended.shards[-1].database.get_index("ix").index
            assert last.has_missing("c") == (case != "chunk")
            for query in _APPEND_QUERIES:
                for semantics in ("is_match", "not_match", "both"):
                    got = appended.execute(query, semantics, using="ix")
                    want = fresh.execute(query, semantics, using="ix")
                    assert len(got.bound_ids) == len(want.bound_ids)
                    for g, w in zip(got.bound_ids, want.bound_ids):
                        assert np.array_equal(g, w), (query, semantics)
        finally:
            manager.close()


def _answers(db):
    return [
        db.execute(q, semantics).record_ids
        for q in ({"a": (2, 6)}, {"a": (1, 9), "b": (2, 3)})
        for semantics in MissingSemantics
    ]


def _assert_answers(db, table):
    """``db`` answers as a sequential scan over ``table`` does."""
    for got, truth in zip(_answers(db), _answers(IncompleteDatabase(table))):
        assert np.array_equal(got, truth)


def _assert_conforms(db, table):
    """``db`` reads exactly as one engine over ``table`` (with ``va``)."""
    engine = IncompleteDatabase(table)
    engine.create_index("va", "vafile")
    assert db.num_records == table.num_records
    for name in table.schema.names:
        assert np.array_equal(db.table.column(name), table.column(name))
        assert np.array_equal(
            db.statistics.attribute(name).counts,
            engine.statistics.attribute(name).counts,
        )
    for query in ({"a": (2, 6)}, {"a": (1, 9), "b": (2, 3)}, {"b": (4, 4)}):
        for semantics in MissingSemantics:
            fetched = db.fetch(query, semantics, using="va")
            expected = engine.fetch(query, semantics, using="va")
            for name in table.schema.names:
                assert np.array_equal(
                    fetched.column(name), expected.column(name)
                )
            assert db.estimate_count(query, semantics) == (
                engine.estimate_count(query, semantics)
            )
        ranked = db.execute_ranked(query, using="va")
        reference = engine.execute_ranked(query, using="va")
        assert np.array_equal(ranked.record_ids, reference.record_ids)
        assert np.array_equal(ranked.probabilities, reference.probabilities)
        assert ranked.num_certain == reference.num_certain


@pytest.fixture()
def count_builds(monkeypatch):
    """Counts index builds, by kind, through the engine's builder table."""
    builds = []
    for kind, build in list(engine_module._BUILDERS.items()):
        def counting(*args, _kind=kind, _build=build, **kwargs):
            builds.append(_kind)
            return _build(*args, **kwargs)

        monkeypatch.setitem(engine_module._BUILDERS, kind, counting)
    return builds


def _four_shards():
    db = ShardedDatabase(_table(n=200), num_shards=4)
    db.create_index("ix", "bre")
    db.create_index("va", "vafile")
    return db


class TestShardGranularWrites:
    def test_empty_append_is_refused_and_publishes_nothing(self, tmp_path):
        with _four_shards() as db:
            save_sharded(db, tmp_path)
        manager = EpochManager(load_sharded(tmp_path), tmp_path)
        writer = SnapshotWriter(manager, tmp_path)
        with pytest.raises(QueryError, match="no rows to append"):
            writer.append({"a": [], "b": []})
        assert manager.current_epoch == 1
        assert [c.name for c in tmp_path.iterdir() if c.is_dir()] == [
            "gen-000001"
        ]
        manager.close()

    def test_append_shares_untouched_engines_and_links_their_files(
        self, tmp_path, count_builds
    ):
        with _four_shards() as db:
            save_sharded(db, tmp_path)
        manager = EpochManager(load_sharded(tmp_path), tmp_path)
        writer = SnapshotWriter(manager, tmp_path)
        before = manager.current_database
        pin = manager.pin()  # keeps gen-000001 on disk to compare inodes
        count_builds.clear()
        with use_registry() as registry:
            writer.append({"a": [3, 4], "b": [1, 0]})
        after = manager.current_database
        assert [
            new.database is old.database
            for new, old in zip(after.shards, before.shards)
        ] == [True, True, True, False]
        assert sorted(count_builds) == ["bre", "vafile"]  # the last shard
        counters = registry.snapshot().counters
        assert counters["writer.shards_rebuilt"] == 1
        assert counters["writer.shards_reused"] == 3
        # The table and both indexes of three shards; nothing else exists.
        assert counters["storage.files_linked"] == 9
        for shard_id in range(4):
            new_dir = tmp_path / "gen-000002" / f"shard-{shard_id}"
            assert sorted(p.name for p in new_dir.iterdir()) == [
                "ix.idx", "table.npz", "va.idx"
            ]
            for name in ("table.npz", "ix.idx", "va.idx"):
                old = tmp_path / "gen-000001" / f"shard-{shard_id}" / name
                shared = os.stat(old).st_ino == os.stat(new_dir / name).st_ino
                assert shared == (shard_id < 3), (shard_id, name)
        pin.release()
        manager.close()
        with load_sharded(tmp_path) as loaded:
            _assert_answers(loaded, after.table)

    @pytest.mark.parametrize(
        "ids, touched", [([0, 3], 1), ([2, 120], 2), ([1, 60, 110, 199], 4)]
    )
    def test_delete_rebuilds_exactly_the_shards_it_hits(
        self, ids, touched, count_builds
    ):
        manager = EpochManager(_four_shards())
        try:
            writer = SnapshotWriter(manager)
            before = manager.current_database
            count_builds.clear()
            with use_registry() as registry:
                writer.delete(ids)
            assert count_builds.count("bre") == touched
            assert registry.snapshot().counters[
                "writer.shards_rebuilt"
            ] == touched
            after = manager.current_database
            hit = {
                shard.shard_id for shard in before.shards
                if any(
                    shard.start <= i < shard.start + shard.database.num_records
                    for i in ids
                )
            }
            for old, new in zip(before.shards, after.shards):
                assert (new.database is old.database) == (
                    old.shard_id not in hit
                )
            keep = np.setdiff1d(np.arange(200), ids)
            _assert_answers(after, before.table.take(keep))
        finally:
            manager.close()

    def test_delete_drops_a_shard_it_empties(self):
        manager = EpochManager(_four_shards())
        try:
            writer = SnapshotWriter(manager)
            before = manager.current_database
            emptied = np.arange(before.shards[1].start, before.shards[2].start)
            writer.delete(emptied)
            after = manager.current_database
            assert after.num_shards == 3
            assert after.shards[1].database is before.shards[2].database
            keep = np.setdiff1d(np.arange(200), emptied)
            _assert_answers(after, before.table.take(keep))
        finally:
            manager.close()

    def test_appends_go_last_and_compact_restores_the_layout(self):
        manager = EpochManager(_four_shards())
        try:
            writer = SnapshotWriter(manager)
            before = manager.current_database
            writer.append({"a": [3, 4, 0], "b": [1, 2, 3]})
            writer.append(_table(seed=6, n=10))
            appended = manager.current_database
            for old, new in zip(before.shards[:3], appended.shards):
                assert new.database is old.database
            assert appended.shards[3].start == 150
            assert appended.shards[3].database.num_records == 50 + 13
            _assert_answers(appended, appended.table)

            writer.compact()
            compacted = manager.current_database
            # The np.array_split layout of 213 rows: sizes 54, 53, 53, 53.
            assert [
                (shard.start, shard.database.num_records)
                for shard in compacted.shards
            ] == [(0, 54), (54, 53), (107, 53), (160, 53)]
            _assert_answers(compacted, appended.table)
        finally:
            manager.close()

    def test_writer_built_snapshots_conform_to_an_engine(self):
        """After append x2, a delete that empties a shard and a compact,
        every snapshot reads like one engine over the mirrored table."""
        table = _table(n=200)
        manager = EpochManager(_four_shards())
        try:
            writer = SnapshotWriter(manager)
            mirror = table
            _assert_conforms(manager.current_database, mirror)
            first, second = _table(seed=6, n=3), _table(seed=7, n=10)
            writer.append(first)
            writer.append(second)
            mirror = concat_tables(mirror, first, second)
            _assert_conforms(manager.current_database, mirror)
            writer.delete(range(50, 100))  # all of shard 1
            assert manager.current_database.num_shards == 3
            mirror = mirror.take(np.setdiff1d(np.arange(213), range(50, 100)))
            _assert_conforms(manager.current_database, mirror)
            writer.compact()
            assert manager.current_database.num_shards == 3
            _assert_conforms(manager.current_database, mirror)
        finally:
            manager.close()

    def test_compact_reuses_shards_whose_rows_stay(self, count_builds):
        manager = EpochManager(_four_shards())
        try:
            before = manager.current_database
            count_builds.clear()
            SnapshotWriter(manager).compact()
            assert count_builds == []
            assert all(
                new.database is old.database
                for new, old in zip(
                    manager.current_database.shards, before.shards
                )
            )
        finally:
            manager.close()

    def test_index_ddl_builds_only_the_named_index(self, count_builds):
        manager = EpochManager(_four_shards())
        try:
            writer = SnapshotWriter(manager)
            before = manager.current_database
            count_builds.clear()
            writer.create_index("bee", "bee", ["a"])
            assert count_builds == ["bee"] * 4
            writer.drop_index("ix")
            assert count_builds == ["bee"] * 4
            after = manager.current_database
            assert after.index_names == ("va", "bee")
            for old, new in zip(before.shards, after.shards):
                assert new.database.table is old.database.table
                assert (
                    new.database.get_index("va").index
                    is old.database.get_index("va").index
                )
            _assert_answers(after, before.table)
        finally:
            manager.close()


class TestDiskBackedWriter:
    def test_epochs_equal_generations_across_restart(self, tmp_path):
        with ShardedDatabase(_table(), num_shards=2) as db:
            db.create_index("ix", "bre")
            save_sharded(db, tmp_path)
        manager = EpochManager(load_sharded(tmp_path), tmp_path)
        writer = SnapshotWriter(manager, tmp_path)
        assert writer.append({"a": [1], "b": [1]}) == 2
        assert writer.compact() == 3
        expected = manager.current_database.execute({"a": (2, 6)}).record_ids
        manager.close()
        # Only the committed generation survives; a fresh manager resumes
        # at epoch 3 and serves the same data.
        dirs = [c.name for c in tmp_path.iterdir() if c.is_dir()]
        assert dirs == ["gen-000003"]
        manager = EpochManager(load_sharded(tmp_path), tmp_path)
        assert manager.current_epoch == 3
        assert np.array_equal(
            manager.current_database.execute({"a": (2, 6)}).record_ids,
            expected,
        )
        writer = SnapshotWriter(manager, tmp_path)
        assert writer.append({"a": [2], "b": [2]}) == 4
        manager.close()

    def test_pinned_old_generation_outlives_publish(self, tmp_path):
        with ShardedDatabase(_table(), num_shards=2) as db:
            db.create_index("ix", "bre")
            save_sharded(db, tmp_path)
        manager = EpochManager(load_sharded(tmp_path), tmp_path)
        writer = SnapshotWriter(manager, tmp_path)
        pin = manager.pin()
        before = pin.database.execute({"a": (2, 6)}).record_ids
        writer.delete([0, 1, 2])
        assert (tmp_path / "gen-000001").is_dir()  # still pinned
        assert np.array_equal(
            pin.database.execute({"a": (2, 6)}).record_ids, before
        )
        pin.release()
        assert not (tmp_path / "gen-000001").exists()
        assert (tmp_path / "gen-000002").is_dir()
        manager.close()
