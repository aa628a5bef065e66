"""Shard manifest round-trips: save, load, and query identically."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import IncompleteDatabase
from repro.dataset.reorder import lexicographic_order
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import CorruptIndexError, ShardError
from repro.query.model import MissingSemantics
from repro.storage import verify_sharded
from repro.shard.manifest import (
    MANIFEST_NAME,
    load_sharded,
    manifest_text,
    save_sharded,
)
from repro.shard.sharded import ShardedDatabase


def rewrite_manifest(path, mutate):
    """Apply ``mutate(manifest_dict)`` and re-sign the manifest checksum."""
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(manifest_text(manifest))

QUERIES = [
    {"a": (2, 6)},
    {"a": (1, 20), "b": (3, 8)},
    {"b": (1, 10)},
]


@pytest.fixture
def table():
    t = generate_uniform_table(
        1500, {"a": 20, "b": 10}, {"a": 0.2, "b": 0.1}, seed=9
    )
    return t.take(lexicographic_order(t, ["a"]))


@pytest.mark.parametrize("kind", ["bee", "bre", "bie", "vafile"])
def test_round_trip_each_serializable_kind(table, tmp_path, kind):
    with ShardedDatabase(table, num_shards=3) as db:
        db.create_index("ix", kind)
        save_sharded(db, tmp_path)
        with load_sharded(tmp_path) as loaded:
            assert loaded.num_shards == 3
            assert loaded.num_records == table.num_records
            assert loaded.index_names == ("ix",)
            for semantics in MissingSemantics:
                for query in QUERIES:
                    expected = db.execute(query, semantics)
                    got = loaded.execute(query, semantics)
                    assert np.array_equal(
                        expected.record_ids, got.record_ids
                    )


def test_round_trip_preserves_table(table, tmp_path):
    with ShardedDatabase(table, num_shards=4) as db:
        db.create_index("ix", "bre")
        save_sharded(db, tmp_path)
    with load_sharded(tmp_path) as loaded:
        # 1500 rows are 49 groups of 31, cut 13, 12, 12, 12.
        assert [shard.start for shard in loaded.shards] == [0, 403, 775, 1147]
        for name in table.schema.names:
            assert np.array_equal(
                loaded.table.column(name), table.column(name)
            )


def test_manifest_file_shape(table, tmp_path):
    with ShardedDatabase(table, num_shards=2) as db:
        db.create_index("ix", "bre")
        path = save_sharded(db, tmp_path)
    manifest = json.loads(path.read_text())
    assert manifest["format"] == "repro-shard-manifest"
    assert manifest["version"] == 3
    assert manifest["num_shards"] == 2
    assert "partitioner" not in manifest
    assert [a["name"] for a in manifest["attributes"]] == ["a", "b"]
    assert len(manifest["shards"]) == 2
    assert manifest["generation"] == 1
    assert isinstance(manifest["self_crc32"], int)
    for entry in manifest["shards"]:
        assert "rows" not in entry
        shard_dir = tmp_path / entry["table"]["path"].rsplit("/", 1)[0]
        assert sorted(p.name for p in shard_dir.iterdir()) == [
            "ix.idx", "table.npz"
        ]
        for record in [entry["table"]] + [
            ix["file"] for ix in entry["indexes"]
        ]:
            target = tmp_path / record["path"]
            assert target.exists()
            assert target.stat().st_size == record["bytes"]
            assert isinstance(record["crc32"], int)


def test_unserializable_kind_rejected_before_writing(table, tmp_path):
    target = tmp_path / "out"
    with ShardedDatabase(table, num_shards=2) as db:
        db.create_index("ix", "mosaic")
        with pytest.raises(ShardError, match="cannot be serialized"):
            save_sharded(db, target)
    assert not target.exists()


def test_load_missing_manifest(tmp_path):
    with pytest.raises(ShardError, match=MANIFEST_NAME):
        load_sharded(tmp_path)


def test_load_rejects_bad_format(table, tmp_path):
    with ShardedDatabase(table, num_shards=2) as db:
        db.create_index("ix", "bre")
        path = save_sharded(db, tmp_path)
    manifest = json.loads(path.read_text())
    manifest["format"] = "something-else"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ShardError, match="format"):
        load_sharded(tmp_path)


def test_load_rejects_corrupt_rows(table, tmp_path, v2_layout):
    """A v2 row map is still load-bearing where a manifest lists one."""
    with ShardedDatabase(table, num_shards=2) as db:
        db.create_index("ix", "bre")
        path = save_sharded(db, tmp_path)
    v2_layout(tmp_path)
    manifest = json.loads(path.read_text())
    rows_path = tmp_path / manifest["shards"][0]["rows"]["path"]
    raw = bytearray(rows_path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    rows_path.write_bytes(bytes(raw))
    with pytest.raises(CorruptIndexError, match="shard 0"):
        load_sharded(tmp_path)


class TestOverwrite:
    def test_second_save_refused_without_overwrite(self, table, tmp_path):
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            save_sharded(db, tmp_path)
            with pytest.raises(ShardError, match="overwrite=True"):
                save_sharded(db, tmp_path)

    def test_stale_shard_dirs_refused_without_overwrite(self, table, tmp_path):
        # Leftovers from an older (or crashed) save, manifest or not.
        (tmp_path / "shard-0").mkdir()
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            with pytest.raises(ShardError, match="overwrite=True"):
                save_sharded(db, tmp_path)

    def test_overwrite_clears_previous_generation(self, table, tmp_path):
        with ShardedDatabase(table, num_shards=4) as db:
            db.create_index("ix", "bre")
            db.create_index("ix2", "bee")
            save_sharded(db, tmp_path)
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            save_sharded(db, tmp_path, overwrite=True)
        dirs = sorted(
            p.name for p in tmp_path.iterdir() if p.is_dir()
        )
        assert dirs == ["gen-000002"]
        with load_sharded(tmp_path) as loaded:
            assert loaded.num_shards == 2
            assert loaded.index_names == ("ix",)


class TestMalformedManifest:
    def test_duplicate_shard_id_rejected(self, table, tmp_path):
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            path = save_sharded(db, tmp_path)

        def clone_shard(manifest):
            manifest["shards"][1]["shard_id"] = 0

        rewrite_manifest(path, clone_shard)
        with pytest.raises(ShardError, match="duplicate shard_id 0"):
            load_sharded(tmp_path)

    def test_noncontiguous_shard_ids_rejected(self, table, tmp_path):
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            path = save_sharded(db, tmp_path)

        def renumber(manifest):
            manifest["shards"][1]["shard_id"] = 5

        rewrite_manifest(path, renumber)
        with pytest.raises(ShardError, match="contiguous"):
            load_sharded(tmp_path)

    def test_row_claimed_by_two_shards_rejected(
        self, table, tmp_path, v2_layout
    ):
        # A v2 manifest labelled contiguous whose shard 1 map claims shard
        # 0's rows: the loader checks the file, not the label.
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            save_sharded(db, tmp_path)
        v2_layout(tmp_path, rows={0: np.arange(775), 1: np.arange(775)})
        with pytest.raises(
            ShardError, match="shard 1: row map .* row range 775..1499"
        ):
            load_sharded(tmp_path)

    def test_unowned_rows_rejected(self, table, tmp_path):
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            path = save_sharded(db, tmp_path)

        def drop_shard(manifest):
            manifest["shards"] = manifest["shards"][:1]
            manifest["num_shards"] = 1

        rewrite_manifest(path, drop_shard)
        with pytest.raises(
            ShardError, match="records 1500 rows but its shards hold 775"
        ):
            load_sharded(tmp_path)

    def test_checksum_mismatch_rejected(self, table, tmp_path):
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            path = save_sharded(db, tmp_path)
        text = path.read_text()
        path.write_text(text.replace('"num_records"', '"num_reCords"', 1))
        with pytest.raises(ShardError, match="checksum"):
            load_sharded(tmp_path)


class TestLegacyManifests:
    """Versions 1 and 2 stored a partitioner name and a row map per shard."""

    #: Saved by the version-2 writer: 240 rows in 3 contiguous shards,
    #: ``bre`` (codec bbc), ``bee`` and ``va`` (vafile) on each.
    FIXTURE = Path(__file__).parent / "data" / "v2-contiguous"

    def test_v2_directory_loads_bit_identically(self, tmp_path):
        root = tmp_path / "v2"
        shutil.copytree(self.FIXTURE, root)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["version"] == 2
        assert all("rows" in entry for entry in manifest["shards"])
        table = generate_uniform_table(
            240, {"a": 9, "b": 5}, {"a": 0.25, "b": 0.1}, seed=29
        )
        engine = IncompleteDatabase(table)
        with load_sharded(root) as loaded:
            assert loaded.num_records == 240
            assert [shard.start for shard in loaded.shards] == [0, 80, 160]
            assert loaded.index_names == ("bre", "bee", "va")
            assert loaded.shards[0].database.get_index("bre").options == {
                "codec": "bbc"
            }
            for name in table.schema.names:
                assert np.array_equal(
                    loaded.table.column(name), table.column(name)
                )
            queries = [{"a": (2, 6)}, {"a": (1, 9), "b": (2, 3)}, {"b": (5, 5)}]
            for semantics in ("is_match", "not_match", "both"):
                for query in queries:
                    expected = engine.execute(query, semantics).bound_ids
                    for index in loaded.index_names:
                        got = loaded.execute(query, semantics, using=index)
                        assert len(got.bound_ids) == len(expected)
                        for a, b in zip(got.bound_ids, expected):
                            assert np.array_equal(a, b)
        assert verify_sharded(root).ok

    def test_resaving_a_v2_directory_writes_v3(self, tmp_path):
        root = tmp_path / "v2"
        shutil.copytree(self.FIXTURE, root)
        with load_sharded(root) as loaded:
            expected = loaded.execute({"a": (2, 6)}).record_ids
            save_sharded(loaded, root, overwrite=True)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["version"] == 3 and "partitioner" not in manifest
        assert not list(root.rglob("rows.npy"))
        with load_sharded(root) as again:
            assert np.array_equal(
                again.execute({"a": (2, 6)}).record_ids, expected
            )

    @pytest.mark.parametrize("partitioner", ["round-robin", "missing-density"])
    def test_other_partitioners_are_a_named_error(
        self, table, tmp_path, v2_layout, partitioner
    ):
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            save_sharded(db, tmp_path)
        v2_layout(tmp_path, partitioner=partitioner)
        with pytest.raises(ShardError, match=repr(partitioner)):
            load_sharded(tmp_path)
