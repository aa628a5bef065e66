"""fsck (`verify_sharded`) verdicts and the experiments CLI wrapper."""

import json

import pytest

from repro.dataset.synthetic import generate_uniform_table
from repro.experiments.__main__ import main as experiments_main
from repro.observability import use_registry
from repro.shard.manifest import save_sharded
from repro.shard.sharded import ShardedDatabase
from repro.storage import verify_file, verify_sharded


@pytest.fixture
def saved(tmp_path):
    table = generate_uniform_table(
        600, {"a": 8, "b": 5}, {"a": 0.2, "b": 0.0}, seed=12
    )
    with ShardedDatabase(table, num_shards=2) as db:
        db.create_index("ix", "bre")
        db.create_index("va", "vafile")
        save_sharded(db, tmp_path)
    return tmp_path


def _file_of(root, shard, role):
    manifest = json.loads((root / "manifest.json").read_text())
    entry = manifest["shards"][shard]
    if role in ("rows", "table"):
        return root / entry[role]["path"]
    (ix,) = [i for i in entry["indexes"] if i["name"] == role]
    return root / ix["file"]["path"]


def _flip(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestVerdicts:
    def test_clean_directory_is_all_ok(self, saved):
        report = verify_sharded(saved)
        assert report.ok
        assert not report.paths("corrupt")
        assert not report.paths("missing")
        # manifest + 2 shards x (table, ix, va): no row maps since v3
        assert len(report.paths("ok")) == 7
        assert not [p for p in report.paths("ok") if p.endswith("rows.npy")]

    def test_legacy_row_maps_are_checked(self, saved, v2_layout):
        v2_layout(saved)
        report = verify_sharded(saved)
        assert report.ok
        rows = [p for p in report.paths("ok") if p.endswith("rows.npy")]
        assert len(rows) == 2 and len(report.paths("ok")) == 9

    def test_deep_clean_directory_is_all_ok(self, saved):
        report = verify_sharded(saved, deep=True)
        assert report.ok

    @pytest.mark.parametrize("role", ["rows", "table", "ix", "va"])
    def test_corrupt_file_flagged_exactly(self, saved, role, v2_layout):
        if role == "rows":
            v2_layout(saved)  # only a v2 manifest lists a row map
        target = _file_of(saved, 1, role)
        _flip(target)
        report = verify_sharded(saved)
        assert not report.ok
        assert report.paths("corrupt") == [str(target)]

    def test_missing_file_flagged(self, saved):
        target = _file_of(saved, 0, "table")
        target.unlink()
        report = verify_sharded(saved)
        assert report.paths("missing") == [str(target)]

    def test_missing_manifest(self, saved):
        (saved / "manifest.json").unlink()
        report = verify_sharded(saved)
        assert not report.ok
        assert report.paths("missing") == [str(saved / "manifest.json")]

    def test_corrupt_manifest(self, saved):
        path = saved / "manifest.json"
        path.write_text(path.read_text()[:-30])
        report = verify_sharded(saved)
        assert report.paths("corrupt") == [str(path)]

    def test_orphan_generation_is_benign(self, saved):
        (saved / "gen-000777" / "shard-0").mkdir(parents=True)
        report = verify_sharded(saved)
        assert report.ok  # orphans never fail the check
        assert report.paths("orphan") == [str(saved / "gen-000777")]

    def test_verdicts_are_counted(self, saved):
        _flip(_file_of(saved, 0, "ix"))
        with use_registry() as registry:
            verify_sharded(saved)
        counters = registry.snapshot().counters
        assert counters["storage.fsck.ok"] == 6
        assert counters["storage.fsck.corrupt"] == 1

    def test_format_mentions_every_file(self, saved):
        _flip(_file_of(saved, 0, "va"))
        report = verify_sharded(saved)
        text = report.format()
        assert "CORRUPT" in text and "manifest.json" in text
        assert "1 corrupt" in text and "6 ok" in text


class TestVerifyFile:
    def test_recorded_crc_mismatch(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"hello")
        assert verify_file(path).status == "ok"  # unframed, nothing recorded
        assert verify_file(path, expected_crc32=1).status == "corrupt"
        assert verify_file(path, expected_bytes=99).status == "corrupt"

    def test_missing(self, tmp_path):
        assert verify_file(tmp_path / "nope").status == "missing"


class TestCli:
    def test_fsck_exit_codes(self, saved, capsys):
        assert experiments_main(["fsck", str(saved)]) == 0
        assert "ok" in capsys.readouterr().out
        _flip(_file_of(saved, 0, "table"))
        assert experiments_main(["fsck", str(saved)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out

    def test_fsck_deep_flag(self, saved, capsys):
        assert experiments_main(["fsck", str(saved), "--deep"]) == 0
        capsys.readouterr()
