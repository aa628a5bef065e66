"""CI smoke check for the storage-integrity layer.

Saves a small sharded database, then corrupts exactly one file per
category — an index file, a shard table, and the manifest itself — and
fails loudly unless

* ``fsck`` (:func:`repro.storage.verify_sharded`) flags exactly the
  corrupted file and nothing else, and
* :func:`~repro.shard.manifest.load_sharded` degrades exactly as
  ``docs/persistence.md`` documents: a corrupt index file is rebuilt from
  the shard table (with identical query results), while a corrupt table
  or manifest is a hard error naming the damaged state.

A last leg publishes one append through
:class:`~repro.serve.SnapshotWriter` and checks the linked generation: the
untouched shard's files share inodes with the previous generation, fsck
passes once that generation is retired, and one flipped byte in a linked
file is flagged exactly and degrades ``load_sharded`` as above.

Usage (what ``.github/workflows/ci.yml`` runs)::

    PYTHONPATH=src python -m repro.experiments.storage_fault_smoke
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable, concat_tables
from repro.errors import CorruptIndexError, ShardError
from repro.observability import use_registry
from repro.query.model import MissingSemantics, RangeQuery
from repro.serve import EpochManager, SnapshotWriter
from repro.shard.manifest import load_sharded, save_sharded
from repro.shard.sharded import ShardedDatabase
from repro.storage import verify_sharded

QUERIES = [
    RangeQuery.from_bounds({"a": (2, 7)}),
    RangeQuery.from_bounds({"a": (1, 9), "b": (2, 4)}),
]


def _results(db):
    return [
        db.execute(query, semantics).record_ids
        for query in QUERIES
        for semantics in MissingSemantics
    ]


def _flip_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def _category_paths(root: Path) -> dict[str, Path]:
    """One representative on-disk file per category, from the manifest."""
    manifest = json.loads((root / "manifest.json").read_text())
    entry = manifest["shards"][0]
    index_file = entry["indexes"][0]["file"]["path"]
    return {
        "index": root / index_file,
        "table": root / entry["table"]["path"],
        "manifest": root / "manifest.json",
    }


def _check_fsck_flags_exactly(root: Path, target: Path) -> list[str]:
    """fsck must report the damaged file corrupt and every other file ok."""
    problems = []
    report = verify_sharded(root)
    if report.ok:
        problems.append(f"fsck missed the corruption in {target.name}")
    corrupt = report.paths("corrupt")
    if corrupt != [str(target)]:
        problems.append(
            f"fsck flagged {corrupt or 'nothing'}, expected exactly "
            f"[{target}]"
        )
    if report.paths("missing"):
        problems.append(
            f"fsck reported missing files {report.paths('missing')} in a "
            "directory where every file exists"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    scratch = Path(tempfile.mkdtemp(prefix="storage-fault-smoke-"))
    try:
        return _run(scratch / "db")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(root: Path) -> int:
    table = generate_uniform_table(
        2_000, {"a": 10, "b": 6}, {"a": 0.2, "b": 0.1}, seed=2006
    )
    with ShardedDatabase(table, num_shards=2) as db:
        db.create_index("ix", "bre")
        db.create_index("va", "vafile")
        save_sharded(db, root)
        baseline = _results(db)

    failures = 0

    clean = verify_sharded(root)
    if not clean.ok:
        failures += 1
        print(
            f"FAIL: fsck reports a freshly saved database as damaged:\n"
            f"{clean.format()}",
            file=sys.stderr,
        )

    paths = _category_paths(root)
    pristine = {name: path.read_bytes() for name, path in paths.items()}

    for category in ("index", "table", "manifest"):
        target = paths[category]
        _flip_byte(target)
        for problem in _check_fsck_flags_exactly(root, target):
            failures += 1
            print(f"FAIL: [{category}] {problem}", file=sys.stderr)

        if category == "index":
            # Documented degradation: rebuild from the shard table, with
            # query results identical to the originally saved database.
            try:
                with use_registry() as registry:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        with load_sharded(root) as loaded:
                            degraded = _results(loaded)
            except Exception as exc:
                failures += 1
                print(
                    f"FAIL: [index] load_sharded should rebuild a corrupt "
                    f"index, but raised {exc!r}",
                    file=sys.stderr,
                )
            else:
                rebuilds = registry.snapshot().counters.get(
                    "storage.index_rebuilds", 0
                )
                if rebuilds != 1:
                    failures += 1
                    print(
                        f"FAIL: [index] expected exactly 1 index rebuild, "
                        f"counted {rebuilds}",
                        file=sys.stderr,
                    )
                if not all(
                    np.array_equal(a, b)
                    for a, b in zip(degraded, baseline)
                ):
                    failures += 1
                    print(
                        "FAIL: [index] rebuilt index returned different "
                        "query results than the saved database",
                        file=sys.stderr,
                    )
        elif category == "manifest":
            try:
                load_sharded(root)
            except ShardError:
                pass
            else:
                failures += 1
                print(
                    "FAIL: [manifest] load_sharded accepted a manifest "
                    "whose bytes were tampered with",
                    file=sys.stderr,
                )
        else:  # table: hard error naming the shard
            try:
                load_sharded(root)
            except CorruptIndexError as exc:
                if "shard 0" not in str(exc):
                    failures += 1
                    print(
                        f"FAIL: [{category}] error does not name the "
                        f"damaged shard: {exc}",
                        file=sys.stderr,
                    )
            except Exception as exc:
                failures += 1
                print(
                    f"FAIL: [{category}] expected CorruptIndexError, got "
                    f"{exc!r}",
                    file=sys.stderr,
                )
            else:
                failures += 1
                print(
                    f"FAIL: [{category}] load_sharded loaded a database "
                    "with a corrupt shard file",
                    file=sys.stderr,
                )

        target.write_bytes(pristine[category])

    healed = verify_sharded(root)
    if not healed.ok:
        failures += 1
        print(
            "FAIL: restoring the pristine bytes did not heal the "
            f"directory:\n{healed.format()}",
            file=sys.stderr,
        )

    failures += _append_leg(root, table)

    print(
        f"storage fault smoke: {len(paths)} categories corrupted and "
        f"restored over {len(clean.findings)} files, plus one linked "
        f"append generation"
    )
    if failures:
        print(
            f"storage fault smoke FAILED ({failures} problem(s))",
            file=sys.stderr,
        )
        return 1
    print("storage fault smoke OK")
    return 0


def _answers_match(got, expected) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(got, expected))


def _append_leg(root: Path, table: IncompleteTable) -> int:
    """Publish one append through :class:`SnapshotWriter`; count problems.

    Shard 0 is untouched by an append, so every one of its files in the
    new generation must be the previous generation's inode; fsck must pass
    the directory
    once the old generation is retired; and a byte flipped in one linked
    file must be flagged exactly and rebuilt on load as any index file is.
    """
    problems = []
    rows = IncompleteTable(table.schema, {"a": [3], "b": [2]})
    appended = _results(IncompleteDatabase(concat_tables(table, rows)))
    manager = EpochManager(load_sharded(root), root)
    writer = SnapshotWriter(manager, root)
    old_gen = root / f"gen-{manager.current_epoch:06d}" / "shard-0"
    inodes = {path.name: path.stat().st_ino for path in old_gen.iterdir()}
    epoch = writer.append(rows)  # joins the last shard
    new_gen = root / f"gen-{epoch:06d}" / "shard-0"
    for name, inode in sorted(inodes.items()):
        if (new_gen / name).stat().st_ino != inode:
            problems.append(f"untouched shard file {name} was rewritten")
    if not _answers_match(_results(manager.current_database), appended):
        problems.append("the appended epoch answers unlike a scan")
    manager.close()  # retires the previous generation

    report = verify_sharded(root)
    if not report.ok or report.paths("orphan"):
        problems.append(f"fsck after the append:\n{report.format()}")

    target = new_gen / "ix.idx"
    _flip_byte(target)
    problems += _check_fsck_flags_exactly(root, target)
    try:
        with use_registry() as registry:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with load_sharded(root) as loaded:
                    degraded = _results(loaded)
    except Exception as exc:
        problems.append(f"load_sharded raised {exc!r} on a rotten index")
    else:
        if registry.snapshot().counters.get("storage.index_rebuilds") != 1:
            problems.append("the rotten linked index was not rebuilt once")
        if not _answers_match(degraded, appended):
            problems.append("the rebuilt index answers unlike a scan")
    for problem in problems:
        print(f"FAIL: [append] {problem}", file=sys.stderr)
    return len(problems)


if __name__ == "__main__":
    sys.exit(main())
