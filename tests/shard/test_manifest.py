"""Shard manifest round-trips: save, load, and query identically."""

import json

import numpy as np
import pytest

from repro.dataset.reorder import lexicographic_order
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import CorruptIndexError, ShardError
from repro.query.model import MissingSemantics
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
    with ShardedDatabase(
        table, num_shards=4, partitioner="round-robin"
    ) as db:
        db.create_index("ix", "bre")
        save_sharded(db, tmp_path)
    with load_sharded(tmp_path) as loaded:
        assert loaded.partitioner_name == "round-robin"
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
    assert manifest["num_shards"] == 2
    assert manifest["partitioner"] == "contiguous"
    assert [a["name"] for a in manifest["attributes"]] == ["a", "b"]
    assert len(manifest["shards"]) == 2
    assert manifest["generation"] == 1
    assert isinstance(manifest["self_crc32"], int)
    for entry in manifest["shards"]:
        for record in [entry["rows"], entry["table"]] + [
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


def test_load_rejects_corrupt_rows(table, tmp_path):
    with ShardedDatabase(table, num_shards=2) as db:
        db.create_index("ix", "bre")
        path = save_sharded(db, tmp_path)
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

    def test_row_claimed_by_two_shards_rejected(self, table, tmp_path):
        with ShardedDatabase(
            table, num_shards=2, partitioner="round-robin"
        ) as db:
            db.create_index("ix", "bre")
            path = save_sharded(db, tmp_path)

        def alias_shard_files(manifest):
            # Point shard 1 at shard 0's files: every row id shard 0 owns
            # is now claimed twice, and shard 1's own ids lose their owner.
            src, dst = manifest["shards"]
            dst["rows"] = src["rows"]
            dst["table"] = src["table"]
            dst["num_records"] = src["num_records"]
            for ix, ix_src in zip(dst["indexes"], src["indexes"]):
                ix["file"] = ix_src["file"]

        rewrite_manifest(path, alias_shard_files)
        with pytest.raises(ShardError, match="claimed by shards"):
            load_sharded(tmp_path)

    def test_unowned_rows_rejected(self, table, tmp_path):
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            path = save_sharded(db, tmp_path)

        def drop_shard(manifest):
            manifest["shards"] = manifest["shards"][:1]
            manifest["num_shards"] = 1

        rewrite_manifest(path, drop_shard)
        with pytest.raises(ShardError, match="not owned by any shard"):
            load_sharded(tmp_path)

    def test_checksum_mismatch_rejected(self, table, tmp_path):
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bre")
            path = save_sharded(db, tmp_path)
        text = path.read_text()
        path.write_text(text.replace('"num_records"', '"num_reCords"', 1))
        with pytest.raises(ShardError, match="checksum"):
            load_sharded(tmp_path)
