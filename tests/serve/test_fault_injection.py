"""Crash-during-publish: the previous epoch stays loadable and served.

Extends the storage fault-injection protocol (crash ``atomic_write`` at
every single step) to the serving layer's publish path, and to every
``os.link`` that shares an unchanged file with the previous generation: a
:class:`SnapshotWriter` append, delete or index build that dies anywhere
inside ``save_sharded`` must leave the previous epoch (a) still the
manager's current, still answering queries, (b) the state ``load_sharded``
gets from the directory, and (c) recoverable — a restart sweeps the debris
and a retried mutation commits cleanly.  The rest checks that linked
generations keep what fsck promises: the retired generation can be
removed, and a rotten file is never linked.
"""

import json
import os

import numpy as np
import pytest

from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable, concat_tables
from repro.observability import use_registry
from repro.query.model import MissingSemantics
from repro.serve import EpochManager, QueryService, SnapshotWriter
from repro.shard import ShardedDatabase, load_sharded, save_sharded
from repro.storage import integrity, verify_sharded

QUERIES = [{"a": (2, 6)}, {"a": (1, 9), "b": (2, 3)}]


def _table(seed=31):
    return generate_uniform_table(
        300, {"a": 9, "b": 4}, {"a": 0.25, "b": 0.1}, seed=seed
    )


def _results(db):
    return [
        db.execute(q, semantics).record_ids
        for q in QUERIES
        for semantics in MissingSemantics
    ]


#: One publish of each kind; together they write, link, rebuild and share.
MUTATIONS = {
    "append": (lambda writer: writer.append({"a": [5], "b": [2]}), 301),
    "delete": (lambda writer: writer.delete([7]), 299),
    "create_index": (lambda writer: writer.create_index("va", "vafile"), 300),
}


class SimulatedCrash(Exception):
    """Raised where the process would have died inside ``os.link``.

    Not an ``OSError``: a save survives a filesystem that refuses a link by
    writing the file instead, and a crash must not look like that.
    """


#: What a crash at each target raises.  A failed write (ENOSPC, EIO) is an
#: ``OSError``, and it must abort the publish, not be swallowed on the way.
CRASHES = {"atomic_write": OSError, "link": SimulatedCrash}


def _crash_at(monkeypatch, step, target="atomic_write"):
    """Make the ``step``-th call of ``target`` raise "simulated crash".

    ``target`` is ``"atomic_write"`` (every file and manifest write) or
    ``"link"`` (``os.link``: every file a generation shares with the last);
    the exception raised is ``CRASHES[target]``.
    """
    calls = {"n": 0}
    module, name = (
        (integrity, "atomic_write") if target == "atomic_write"
        else (os, "link")
    )
    real = getattr(module, name)

    def failing(*args):
        if calls["n"] == step:
            raise CRASHES[target]("simulated crash")
        calls["n"] += 1
        return real(*args)

    monkeypatch.setattr(module, name, failing)


def _served(root):
    with ShardedDatabase(_table(), num_shards=2) as db:
        db.create_index("ix", "bre")
        save_sharded(db, root)
    manager = EpochManager(load_sharded(root), root)
    return manager, SnapshotWriter(manager, root)


def _count_publish_steps(monkeypatch, root, mutate) -> dict[str, int]:
    """How many atomic writes and links one ``mutate`` publish performs."""
    counts = {"atomic_write": 0, "link": 0}
    manager, writer = _served(root)
    for module, name, key in (
        (integrity, "atomic_write", "atomic_write"), (os, "link", "link")
    ):
        real = getattr(module, name)

        def counting(*args, _real=real, _key=key):
            counts[_key] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    mutate(writer)
    monkeypatch.undo()
    manager.close()
    return counts


def test_crash_at_every_publish_step_preserves_previous_epoch(
    tmp_path, monkeypatch
):
    for label, (mutate, num_records) in MUTATIONS.items():
        steps = _count_publish_steps(
            monkeypatch, tmp_path / f"count-{label}", mutate
        )
        # Something is written (at least the manifest) and something of
        # the untouched shard is shared.
        assert steps["atomic_write"] >= 2 and steps["link"] >= 1, label

        root = tmp_path / label
        manager, writer = _served(root)
        old = _results(manager.current_database)
        for target, total in steps.items():
            for step in range(total):
                _crash_at(monkeypatch, step, target)
                with pytest.raises(CRASHES[target], match="simulated crash"):
                    mutate(writer)
                monkeypatch.undo()
                # (a) the manager still serves the previous epoch...
                assert manager.current_epoch == 1
                with manager.pin() as pin:
                    assert all(
                        np.array_equal(a, b)
                        for a, b in zip(_results(pin.database), old)
                    )
                # ...(b) and the directory still loads as the previous
                # epoch.
                with load_sharded(root) as loaded:
                    assert all(
                        np.array_equal(a, b)
                        for a, b in zip(_results(loaded), old)
                    )
                manifest = json.loads((root / "manifest.json").read_text())
                assert manifest["generation"] == 1

        # (c) the retried mutation commits.  Each crashed attempt left a
        # partial generation directory behind, so the committed generation
        # is simply the next free number — still strictly advancing.
        committed = mutate(writer)
        assert committed > 1
        assert manager.current_epoch == committed
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["generation"] == committed
        manager.close()
        with load_sharded(root) as loaded:
            assert loaded.num_records == num_records
        assert verify_sharded(root).ok
        # A restart (fresh manager) sweeps the crashed attempts' debris.
        manager = EpochManager(load_sharded(root), root)
        gen_dirs = [c.name for c in root.iterdir() if c.is_dir()]
        assert gen_dirs == [f"gen-{committed:06d}"]
        manager.close()


def test_restart_after_crashed_publish_sweeps_debris(tmp_path, monkeypatch):
    root = tmp_path / "db"
    manager, writer = _served(root)
    old = _results(manager.current_database)
    _crash_at(monkeypatch, 1)  # the appended shard's index file
    with pytest.raises(OSError, match="simulated crash"):
        writer.append({"a": [5], "b": [2]})
    monkeypatch.undo()
    manager.close()
    # The crashed publish left a partial gen-000002; a fresh manager
    # (the restart path) sweeps it and resumes at epoch 1.
    assert (root / "gen-000002").is_dir()
    manager = EpochManager(load_sharded(root), root)
    assert manager.current_epoch == 1
    assert not (root / "gen-000002").exists()
    with manager.pin() as pin:
        assert all(
            np.array_equal(a, b) for a, b in zip(_results(pin.database), old)
        )
    manager.close()


def test_a_refused_link_is_written_instead(tmp_path, monkeypatch):
    root = tmp_path / "db"
    manager, writer = _served(root)

    def refuse(*args):
        raise PermissionError("this filesystem has no hard links")

    monkeypatch.setattr(os, "link", refuse)
    with use_registry() as registry:
        writer.append({"a": [5], "b": [2]})
    monkeypatch.undo()
    assert registry.snapshot().counters["storage.files_linked"] == 0
    served = _results(manager.current_database)
    manager.close()
    assert verify_sharded(root).ok
    with load_sharded(root) as loaded:
        assert loaded.num_records == 301
        assert all(
            np.array_equal(a, b) for a, b in zip(_results(loaded), served)
        )


def _inode(path):
    return os.stat(path).st_ino


def test_gc_of_the_linked_generation_leaves_the_new_one_whole(tmp_path):
    root = tmp_path / "db"
    manager, writer = _served(root)
    shared = root / "gen-000001" / "shard-0" / "ix.idx"
    inode = _inode(shared)
    pin = manager.pin()
    writer.append({"a": [5], "b": [2]})
    # Shard 0 is untouched: its files are the old inodes under new names.
    assert _inode(root / "gen-000002" / "shard-0" / "ix.idx") == inode
    expected = _results(manager.current_database)
    pin.release()  # retires epoch 1: its generation directory is removed
    assert not (root / "gen-000001").exists()
    report = verify_sharded(root, deep=True)
    assert report.ok and not report.paths("orphan")
    with load_sharded(root) as loaded:
        assert all(
            np.array_equal(a, b) for a, b in zip(_results(loaded), expected)
        )
    manager.close()


def test_rotten_previous_file_is_rewritten_not_linked(tmp_path):
    root = tmp_path / "db"
    manager, writer = _served(root)
    rotten = root / "gen-000001" / "shard-0" / "ix.idx"
    raw = bytearray(rotten.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    rotten.write_bytes(bytes(raw))
    inode = _inode(rotten)
    with use_registry() as registry:
        writer.append({"a": [5], "b": [2]})
    counters = registry.snapshot().counters
    assert counters["storage.checksum_failures"] == 1
    # Shard 0's table is linked; its rotten index is not.
    assert counters["storage.files_linked"] == 1
    assert _inode(root / "gen-000002" / "shard-0" / "ix.idx") != inode
    served = _results(manager.current_database)
    manager.close()  # retires epoch 1 and the rotten file with it
    assert verify_sharded(root).ok
    table = _table()
    rows = IncompleteTable(table.schema, {"a": [5], "b": [2]})
    scan = IncompleteDatabase(concat_tables(table, rows))
    with load_sharded(root) as loaded:
        for got in (served, _results(loaded)):
            assert all(
                np.array_equal(a, b) for a, b in zip(got, _results(scan))
            )


def test_service_survives_a_crashed_write_route(tmp_path, monkeypatch):
    """Over HTTP: a failed /append 500s, reads keep serving the old epoch."""
    import urllib.error
    import urllib.request

    def post(url, payload):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    root = tmp_path / "db"
    with ShardedDatabase(_table(), num_shards=2) as db:
        db.create_index("ix", "bre")
        save_sharded(db, root)
    service = QueryService(directory=root).start()
    try:
        status, expected = post(
            service.url + "/query", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200 and expected["epoch"] == 1
        _crash_at(monkeypatch, 0)  # the appended shard's table file
        status, body = post(
            service.url + "/append", {"rows": {"a": [5], "b": [2]}}
        )
        monkeypatch.undo()
        assert status == 500 and "simulated crash" in body["error"]
        # Reads continue against the intact previous epoch.
        status, body = post(
            service.url + "/query", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200
        assert body["epoch"] == 1
        assert body["record_ids"] == expected["record_ids"]
        # And the retry commits a new epoch (the crashed attempt's
        # partial generation directory claimed a number, so > 2 is fine).
        status, body = post(
            service.url + "/append", {"rows": {"a": [5], "b": [2]}}
        )
        assert status == 200 and body["epoch"] > 1
        status, body = post(
            service.url + "/query", {"bounds": {"a": [2, 6]}}
        )
        assert status == 200 and body["matches"] >= expected["matches"]
    finally:
        service.stop()
