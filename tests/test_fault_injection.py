"""Fault-injection harness over every persistence writer/loader pair.

Three fault families, per the storage-integrity contract
(``docs/persistence.md``):

* **bit flips / truncations** — any corrupted saved file must raise
  :class:`CorruptIndexError` from its loader (never a bare
  ``struct.error``, a numpy/zipfile traceback, or a silently wrong
  answer);
* **crash between files** — interrupting ``save_sharded`` at every single
  write step must leave the directory loadable as either the complete old
  state or the complete new state;
* **missing files** — a deleted manifest vs. a deleted shard file degrade
  exactly as documented (hard error naming the shard for table state,
  rebuild for index state).
"""

import shutil
import warnings

import numpy as np
import pytest

from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.dataset.io import load_table, save_table
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import CorruptIndexError, ReproError, ShardError
from repro.observability import use_registry
from repro.query.model import MissingSemantics
from repro.shard.manifest import load_sharded, save_sharded
from repro.shard.sharded import ShardedDatabase
from repro.storage import integrity
from repro.storage.serialize import (
    load_bitmap_index_file,
    load_vafile_file,
    save_bitmap_index,
    save_vafile,
)
from repro.vafile.vafile import VAFile


@pytest.fixture(scope="module")
def table():
    return generate_uniform_table(
        400, {"a": 9, "b": 4}, {"a": 0.25, "b": 0.1}, seed=77
    )


def _saved_table(table, directory):
    path = directory / "t.npz"
    save_table(table, path)
    return path, load_table


def _saved_bitmap(table, directory):
    path = directory / "ix.idx"
    save_bitmap_index(EqualityEncodedBitmapIndex(table, codec="wah"), path)
    return path, load_bitmap_index_file


def _saved_vafile(table, directory):
    path = directory / "va.idx"
    save_vafile(VAFile(table), path)
    return path, lambda p: load_vafile_file(p, table)


_WRITERS = {
    "table": _saved_table,
    "bitmap": _saved_bitmap,
    "vafile": _saved_vafile,
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
class TestSingleFileCorruption:
    def test_every_byte_flip_raises_corrupt_index_error(
        self, table, tmp_path, kind
    ):
        path, loader = _WRITERS[kind](table, tmp_path)
        pristine = path.read_bytes()
        loader(path)  # sanity: loads clean
        for position in range(len(pristine)):
            corrupted = bytearray(pristine)
            corrupted[position] ^= 0x40
            path.write_bytes(bytes(corrupted))
            with pytest.raises(CorruptIndexError):
                loader(path)
        path.write_bytes(pristine)
        loader(path)

    def test_truncation_at_every_boundary_raises(self, table, tmp_path, kind):
        path, loader = _WRITERS[kind](table, tmp_path)
        pristine = path.read_bytes()
        # Every frame-structure boundary plus a spread of interior cuts.
        cuts = {0, 1, 4, 12, 16, len(pristine) // 2, len(pristine) - 1}
        sections = integrity.parse_frame(pristine)
        offset = len(pristine) - sum(len(p) for _, p in sections)
        for _, payload in sections:
            cuts.add(offset)  # cut exactly at each section boundary
            offset += len(payload)
        for cut in sorted(cuts):
            path.write_bytes(pristine[:cut])
            with pytest.raises(CorruptIndexError):
                loader(path)

    def test_error_message_names_the_file(self, table, tmp_path, kind):
        path, loader = _WRITERS[kind](table, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) - 1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptIndexError, match=path.name):
            loader(path)


QUERIES = [{"a": (2, 6)}, {"a": (1, 9), "b": (2, 3)}]


def _results(db):
    return [
        db.execute(q, semantics).record_ids
        for q in QUERIES
        for semantics in MissingSemantics
    ]


@pytest.fixture()
def saved_sharded(table, tmp_path):
    with ShardedDatabase(table, num_shards=2) as db:
        db.create_index("ix", "bee")
        db.create_index("va", "vafile")
        save_sharded(db, tmp_path)
        baseline = _results(db)
    return tmp_path, baseline


class TestShardedDegradation:
    def _manifest_paths(self, root):
        import json

        manifest = json.loads((root / "manifest.json").read_text())
        for entry in manifest["shards"]:
            yield entry["shard_id"], "table", root / entry["table"]["path"]
            for ix in entry["indexes"]:
                yield entry["shard_id"], ix["name"], root / ix["file"]["path"]

    def test_corrupt_index_file_is_rebuilt(self, saved_sharded):
        root, baseline = saved_sharded
        for shard_id, role, path in self._manifest_paths(root):
            if role not in ("ix", "va"):
                continue
            pristine = path.read_bytes()
            raw = bytearray(pristine)
            raw[len(raw) // 2] ^= 0xFF
            path.write_bytes(bytes(raw))
            with use_registry() as registry:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with load_sharded(root) as loaded:
                        assert all(
                            np.array_equal(a, b)
                            for a, b in zip(_results(loaded), baseline)
                        )
            counters = registry.snapshot().counters
            assert counters["storage.index_rebuilds"] == 1
            assert any(
                f"shard {shard_id}" in str(w.message) for w in caught
            )
            path.write_bytes(pristine)

    def test_corrupt_table_file_is_a_hard_error(self, saved_sharded):
        root, _ = saved_sharded
        for shard_id, role, path in self._manifest_paths(root):
            if role != "table":
                continue
            pristine = path.read_bytes()
            raw = bytearray(pristine)
            raw[len(raw) // 2] ^= 0xFF
            path.write_bytes(bytes(raw))
            with pytest.raises(CorruptIndexError, match=f"shard {shard_id}"):
                load_sharded(root)
            path.write_bytes(pristine)

    def test_deleted_manifest_vs_deleted_shard_file(self, saved_sharded):
        root, baseline = saved_sharded
        paths = list(self._manifest_paths(root))
        # Deleting an index file degrades to a rebuild...
        _, _, index_path = next(p for p in paths if p[1] == "ix")
        saved = index_path.read_bytes()
        index_path.unlink()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with load_sharded(root) as loaded:
                assert all(
                    np.array_equal(a, b)
                    for a, b in zip(_results(loaded), baseline)
                )
        index_path.write_bytes(saved)
        # ...deleting a table file is a hard, named error...
        shard_id, _, table_path = next(p for p in paths if p[1] == "table")
        saved = table_path.read_bytes()
        table_path.unlink()
        with pytest.raises(CorruptIndexError, match=f"shard {shard_id}"):
            load_sharded(root)
        table_path.write_bytes(saved)
        # ...and deleting the manifest means there is no database here.
        (root / "manifest.json").unlink()
        with pytest.raises(ShardError, match="manifest.json"):
            load_sharded(root)


class TestCrashDuringSave:
    """Interrupt save_sharded at every write; old state must survive."""

    def _crash_at(self, monkeypatch, step):
        calls = {"n": 0}
        real = integrity.atomic_write

        def failing(path, data):
            if calls["n"] == step:
                raise OSError("simulated crash")
            calls["n"] += 1
            return real(path, data)

        monkeypatch.setattr(integrity, "atomic_write", failing)
        return calls

    def _count_writes(self, table, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = integrity.atomic_write

        def counting(path, data):
            calls["n"] += 1
            return real(path, data)

        monkeypatch.setattr(integrity, "atomic_write", counting)
        scratch = tmp_path / "count"
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bee")
            db.create_index("va", "vafile")
            save_sharded(db, scratch)
        monkeypatch.undo()
        shutil.rmtree(scratch)
        return calls["n"]

    def test_crash_at_every_step_preserves_old_state(
        self, table, tmp_path, monkeypatch
    ):
        total_writes = self._count_writes(table, tmp_path, monkeypatch)
        assert total_writes > 4  # rows/table/indexes per shard + manifest
        root = tmp_path / "db"
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bee")
            db.create_index("va", "vafile")
            save_sharded(db, root)
            old = _results(db)
        # A *different* new state: more shards, one fewer index.
        with ShardedDatabase(table, num_shards=3) as db2:
            db2.create_index("ix", "bee")
            for step in range(total_writes):
                self._crash_at(monkeypatch, step)
                with pytest.raises(OSError, match="simulated crash"):
                    save_sharded(db2, root, overwrite=True)
                monkeypatch.undo()
                # Old state must load, completely and identically.
                with load_sharded(root) as loaded:
                    assert loaded.num_shards == 2
                    assert loaded.index_names == ("ix", "va")
                    assert all(
                        np.array_equal(a, b)
                        for a, b in zip(_results(loaded), old)
                    )
            # Completing the save afterwards commits the new state.
            save_sharded(db2, root, overwrite=True)
            new = _results(db2)
        with load_sharded(root) as loaded:
            assert loaded.num_shards == 3
            assert loaded.index_names == ("ix",)
            assert all(
                np.array_equal(a, b) for a, b in zip(_results(loaded), new)
            )

    def test_initial_save_crash_leaves_no_loadable_state(
        self, table, tmp_path, monkeypatch
    ):
        root = tmp_path / "fresh"
        with ShardedDatabase(table, num_shards=2) as db:
            db.create_index("ix", "bee")
            self._crash_at(monkeypatch, 2)
            with pytest.raises(OSError, match="simulated crash"):
                save_sharded(db, root)
            monkeypatch.undo()
            with pytest.raises(ShardError, match="manifest.json"):
                load_sharded(root)
            # The retry succeeds over the debris.
            save_sharded(db, root, overwrite=True)
            expected = _results(db)
        with load_sharded(root) as loaded:
            assert all(
                np.array_equal(a, b)
                for a, b in zip(_results(loaded), expected)
            )


class TestLoadersNeverLeakRawErrors:
    """Legacy (unframed) corrupt files still raise CorruptIndexError."""

    @pytest.mark.parametrize("kind", sorted(_WRITERS))
    def test_garbage_legacy_file(self, table, tmp_path, kind):
        path, loader = _WRITERS[kind](table, tmp_path)
        for junk in (b"", b"\x00", b"PK\x03\x04 not a real zip", b"A" * 64):
            path.write_bytes(junk)
            try:
                loader(path)
            except ReproError:
                pass  # CorruptIndexError or a subclassed library error
            # A clean parse of junk would be a silent-corruption bug, but
            # none of these byte strings form a valid archive.
