"""Persist and restore an :class:`~repro.core.engine.IncompleteDatabase`.

Layout on disk (all paths relative to the manifest's directory)::

    manifest.json                 -- format tag, schema, checksums, catalog
    gen-000001/shard-0/table.npz  -- shard 0's rows (repro.dataset.io)
    gen-000001/shard-0/<name>.idx -- one file per attached index
    gen-000001/shard-1/...

``manifest.json`` is the source of truth: it names the full-table schema
and, for every shard (segment) in row order, its table file and the
``(name, kind, attributes, options, file)`` of each serialized index.
Shard *k* owns the global rows that follow shard *k - 1*'s, so no row-id
map is stored.  Only
the serializable index kinds — the WAH/BBC bitmap encodings (``bee``,
``bre``, ``bie``) and ``vafile`` — can be persisted; other kinds raise
:class:`~repro.errors.ShardError` at save time so a manifest never goes out
half-written with silently dropped indexes.

Crash safety and integrity (see ``docs/persistence.md``):

* every save writes into a **fresh generation directory** and commits by
  atomically replacing ``manifest.json`` last, so a crash at any point
  leaves the directory loadable as either the complete old state or the
  complete new state (stale generations are garbage-collected only after
  the commit);
* a generation **hard-links** every file whose object (shard table or
  index) was loaded from or saved to a committed file under the same root,
  once that file passes its recorded CRC; only what changed is written.
  Each ``gen-*`` directory stays self-contained, so removing an older one
  never touches a newer one's names;
* every file is written through the checksummed ``RPF1`` frame and its
  whole-file CRC32 and size are **recorded in the manifest**, which also
  carries a checksum over its own canonical JSON (``self_crc32``);
* saving over an existing saved directory requires ``overwrite=True`` —
  refusing beats silently mixing shard files from two different saves;
* loading degrades gracefully: a corrupt or missing *index* file is
  reported (``storage.index_rebuilds`` counter + ``RuntimeWarning``) and
  the index is rebuilt from the shard table, while a corrupt *table* file
  is a hard :class:`~repro.errors.CorruptIndexError` naming the file and
  shard.

Loading reads shard tables and indexes back as serialized, so indexes stay
aligned with their rows.  Malformed manifests are rejected with errors
naming the offending shard.  Only version 3 loads: a v1/v2 manifest (a
``partitioner`` name and a ``rows.npy`` id map per shard) is an
unsupported-version ``ShardError``.
"""

from __future__ import annotations

import json
import os
import shutil
import warnings
import weakref
from pathlib import Path

from repro.core.engine import IncompleteDatabase
from repro.core.segment import Segment
from repro.dataset.io import load_table, save_table
from repro.errors import CorruptIndexError, ShardError
from repro.observability import record
from repro.shard.sharded import _check_executor
from repro.storage import integrity
from repro.storage.integrity import crc32, file_crc32
from repro.storage.serialize import (
    load_bitmap_index_file,
    load_vafile_file,
    save_bitmap_index,
    save_vafile,
)

__all__ = ["MANIFEST_NAME", "load_sharded", "save_sharded"]

MANIFEST_NAME = "manifest.json"
_FORMAT = "repro-shard-manifest"
_VERSION = 3

#: Index kinds the manifest can persist, mapped to their writers.
_BITMAP_KINDS = frozenset({"bee", "bre", "bie"})


def _shard_dir(shard_id: int) -> str:
    return f"shard-{shard_id}"


def _generation_dir(generation: int) -> str:
    return f"gen-{generation:06d}"


def _generation_of(name: str) -> int | None:
    """The generation number encoded in a ``gen-*`` directory name."""
    if not name.startswith("gen-"):
        return None
    try:
        return int(name[4:])
    except ValueError:
        return None


def _owned_entries(root: Path) -> list[Path]:
    """Subdirectories a previous :func:`save_sharded` may have created."""
    if not root.is_dir():
        return []
    owned = []
    for child in root.iterdir():
        if not child.is_dir():
            continue
        if _generation_of(child.name) is not None or (
            child.name.startswith("shard-")
            and child.name[6:].isdigit()
        ):
            owned.append(child)
    return owned


def manifest_text(manifest: dict) -> str:
    """Canonical manifest JSON with ``self_crc32`` stamped in.

    The checksum covers the canonical serialization of everything *except*
    the ``self_crc32`` field itself; :func:`load_sharded` and fsck recompute
    it the same way.
    """
    body = {k: v for k, v in manifest.items() if k != "self_crc32"}
    canonical = json.dumps(body, indent=2, sort_keys=True)
    signed = dict(body, self_crc32=crc32(canonical.encode("utf-8")))
    return json.dumps(signed, indent=2, sort_keys=True) + "\n"


def _file_record(root: Path, relative: str) -> dict:
    """Manifest record for a just-written file: path, CRC32, byte size."""
    checksum, nbytes = file_crc32(root / relative)
    return {"path": relative, "crc32": checksum, "bytes": nbytes}


def _file_fields(entry) -> tuple[str, int | None, int | None]:
    """``(path, crc32, bytes)`` of a manifest file record (a file whose
    record lacks either number fails its check)."""
    return entry["path"], entry.get("crc32"), entry.get("bytes")


def _index_options(attached) -> dict:
    """Constructor options needed to rebuild ``attached`` from its table."""
    if attached.kind in _BITMAP_KINDS:
        return {"codec": attached.index.codec}
    vafile = attached.index
    return {
        "quantization": vafile.quantization,
        "bits": {
            name: vafile.quantizer(name).bits for name in vafile.attributes
        },
    }


#: The committed file each shard table and index object was last loaded
#: from or saved to, as ``(resolved root, file record)``.  Keyed by object,
#: not kept on a database, because snapshots share these objects and a save
#: is handed only the database.  Weak keys: a record lives exactly as long
#: as some database holds the object, and a value never refers back to its
#: key.
_committed: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _Placer:
    """Fills one new generation: links what is committed and intact.

    A file whose object already has a committed file under the same root is
    hard-linked after that file passes its recorded CRC; one that fails,
    vanished or cannot be linked is written again from memory.  What each
    object now lives in is remembered only by :meth:`commit`, after the
    manifest names it.
    """

    def __init__(self, root: Path):
        self._root = root
        self._key = root.resolve()
        self._linked = 0
        self._placed: list[tuple] = []

    def place(self, owner, relative: str, write) -> dict:
        """The manifest record of ``owner``'s file at ``relative``."""
        entry = _committed.get(owner)
        if entry is not None and entry[0] == self._key:
            committed = entry[1]
            source = self._root / committed["path"]
            try:
                _verify_recorded_crc(
                    source, committed["crc32"], committed["bytes"],
                    f"linking {committed['path']}",
                )
                integrity.hard_link(source, self._root / relative)
            except (CorruptIndexError, OSError):
                pass  # rotten, gone or unlinkable: rewrite it from memory
            else:
                self._linked += 1
                return self._remember(owner, dict(committed, path=relative))
        write(self._root / relative)
        return self._remember(owner, _file_record(self._root, relative))

    def _remember(self, owner, file_record: dict) -> dict:
        self._placed.append((owner, (self._key, file_record)))
        return file_record

    def commit(self) -> None:
        """The manifest is durable: remember where every object now lives."""
        for owner, entry in self._placed:
            _committed[owner] = entry
        record("storage.files_linked", self._linked)


def _remember_loaded(root: Path, owner, fields) -> None:
    """Note the file :func:`load_sharded` read ``owner`` from."""
    rel, crc, nbytes = _file_fields(fields)
    _committed[owner] = (
        root.resolve(), {"path": rel, "crc32": crc, "bytes": nbytes}
    )


def save_sharded(
    db: IncompleteDatabase,
    directory: str | os.PathLike,
    overwrite: bool = False,
    gc_stale: bool = True,
) -> Path:
    """Write ``db`` (segment tables and indexes, in row order) under ``directory``.

    Any database saves, one segment or several.  Returns the manifest
    path.  The directory is created if needed.  If it already holds a
    saved database (or stray ``gen-*``/``shard-*``
    subdirectories from one), the save refuses with :class:`ShardError`
    unless ``overwrite=True``; with it, the new state is written into a
    fresh generation directory, committed by atomically replacing
    ``manifest.json``, and only then are the previous generation's files
    removed — so a crash mid-save always leaves the old state loadable.
    Raises :class:`ShardError` before writing anything if some attached
    index kind cannot be serialized.  A shard table or index that is
    already committed under ``directory`` and still passes its recorded
    CRC is hard-linked into the new generation instead of written
    (``storage.files_linked`` counts them).

    ``gc_stale=False`` leaves previous generation directories on disk after
    the commit.  The serving layer's :class:`~repro.serve.EpochManager`
    uses this: readers may still hold a pinned epoch whose segments mmap
    files in an older generation, so stale generations are garbage-collected
    only when their pin count drops to zero (orphans stay benign to both
    ``fsck`` and :func:`load_sharded`).

    The ``*_sharded`` names are kept only because the benchmark harness
    imports them; a benchmark-only change renames this pair.
    """
    root = Path(directory)
    for attached in db.segments[0].indexes.values():
        name, kind = attached.name, attached.kind
        if kind not in _BITMAP_KINDS and kind != "vafile":
            raise ShardError(
                f"index {name!r} has kind {kind!r}, which cannot be "
                f"serialized; persistable kinds are "
                f"{sorted(_BITMAP_KINDS | {'vafile'})}"
            )
    manifest_path = root / MANIFEST_NAME
    previous = _owned_entries(root)
    if (manifest_path.exists() or previous) and not overwrite:
        raise ShardError(
            f"{root} already holds a saved database; pass "
            f"overwrite=True to replace it"
        )
    generation = 1 + max(
        (gen for entry in previous
         if (gen := _generation_of(entry.name)) is not None),
        default=0,
    )
    gen_rel = _generation_dir(generation)
    root.mkdir(parents=True, exist_ok=True)
    placer = _Placer(root)
    shard_entries = []
    for shard_id, segment in enumerate(db.segments):
        shard_rel = f"{gen_rel}/{_shard_dir(shard_id)}"
        (root / shard_rel).mkdir(parents=True, exist_ok=True)
        table = segment.table
        entry = {
            "shard_id": shard_id,
            "num_records": table.num_records,
            "table": placer.place(
                table, f"{shard_rel}/table.npz",
                lambda path: save_table(table, path),
            ),
            "indexes": [],
        }
        for name, attached in segment.indexes.items():
            save = (
                save_bitmap_index if attached.kind in _BITMAP_KINDS
                else save_vafile
            )
            entry["indexes"].append({
                "name": name,
                "kind": attached.kind,
                "attributes": list(attached.attributes),
                "options": _index_options(attached),
                "file": placer.place(
                    attached.index, f"{shard_rel}/{name}.idx",
                    lambda path: save(attached.index, path),
                ),
            })
        shard_entries.append(entry)
    manifest = {
        "format": _FORMAT,
        "version": _VERSION,
        "generation": generation,
        "num_records": db.num_records,
        "num_shards": db.num_shards,
        "attributes": [
            {"name": spec.name, "cardinality": spec.cardinality}
            for spec in db.schema
        ],
        "shards": shard_entries,
    }
    integrity.atomic_write(
        manifest_path, manifest_text(manifest).encode("utf-8")
    )
    placer.commit()
    # Commit point passed: the new manifest is durable.  Clearing stale
    # generations (and pre-generation shard-* layouts) is best-effort —
    # a crash here leaves orphans that fsck reports and load ignores.
    if gc_stale:
        for entry in _owned_entries(root):
            if entry.name != gen_rel:
                shutil.rmtree(entry, ignore_errors=True)
    return manifest_path


def _read_manifest(manifest_path: Path) -> dict:
    """Parse and integrity-check ``manifest.json``."""
    if not manifest_path.exists():
        raise ShardError(f"no {MANIFEST_NAME} in {manifest_path.parent}")
    try:
        text = manifest_path.read_text(encoding="utf-8")
        manifest = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ShardError(f"{manifest_path} is not valid JSON: {exc}")
    if not isinstance(manifest, dict):
        raise ShardError(f"{manifest_path}: manifest is not a JSON object")
    if manifest.get("format") != _FORMAT:
        raise ShardError(
            f"{manifest_path}: unexpected format tag "
            f"{manifest.get('format')!r}"
        )
    version = manifest.get("version")
    if version != _VERSION:
        raise ShardError(
            f"{manifest_path}: unsupported manifest version {version!r} "
            f"(this build reads [{_VERSION}])"
        )
    recorded = manifest.get("self_crc32")
    body = {k: v for k, v in manifest.items() if k != "self_crc32"}
    canonical = json.dumps(body, indent=2, sort_keys=True)
    actual = crc32(canonical.encode("utf-8"))
    if recorded != actual:
        record("storage.checksum_failures")
        raise ShardError(
            f"{manifest_path}: manifest checksum mismatch "
            f"(recorded {recorded}, content hashes to {actual}); "
            f"the manifest has been corrupted or hand-edited"
        )
    return manifest


def _check_shard_entries(manifest: dict, manifest_path: Path) -> list[dict]:
    """Shard entries in shard-id order, with duplicate/missing ids rejected."""
    entries = sorted(manifest["shards"], key=lambda e: e["shard_id"])
    seen: dict[int, int] = {}
    for entry in entries:
        shard_id = entry["shard_id"]
        if shard_id in seen:
            raise ShardError(
                f"{manifest_path}: duplicate shard_id {shard_id} in manifest"
            )
        seen[shard_id] = shard_id
    expected = list(range(len(entries)))
    if sorted(seen) != expected:
        raise ShardError(
            f"{manifest_path}: shard ids {sorted(seen)} are not the "
            f"contiguous range 0..{len(entries) - 1}"
        )
    return entries


def _verify_recorded_crc(
    path: Path, recorded_crc, recorded_bytes, context: str
) -> None:
    """Check a file against the CRC/size the manifest recorded for it."""
    if not path.exists():
        raise CorruptIndexError(f"{context}: {path} is missing")
    actual_crc, actual_bytes = file_crc32(path)
    if actual_bytes != recorded_bytes:
        record("storage.checksum_failures")
        raise CorruptIndexError(
            f"{context}: {path} is {actual_bytes} bytes but the manifest "
            f"recorded {recorded_bytes}"
        )
    if actual_crc != recorded_crc:
        record("storage.checksum_failures")
        raise CorruptIndexError(
            f"{context}: {path} fails its manifest checksum "
            f"(recorded {recorded_crc}, file hashes to {actual_crc})"
        )


def load_sharded(
    directory: str | os.PathLike,
    executor: str | None = None,
) -> IncompleteDatabase:
    """Rebuild a database saved by :func:`save_sharded`.

    Table files are load-bearing: if one is missing or fails its checksum
    the load raises :class:`CorruptIndexError` naming the file and shard.
    Index files are derived state: a corrupt or missing index file is
    reported (``RuntimeWarning`` + ``storage.index_rebuilds`` counter) and
    that shard's index is rebuilt from its table using the options
    recorded in the manifest, so the database still opens and answers
    queries identically.  An index that does not cover its shard's rows
    is refused.

    ``executor`` is ``None`` or ``"sequential"`` and selects nothing; it
    is checked before any file is opened.  It and the ``*_sharded`` names
    are kept only because the benchmark harness passes and imports them;
    they go in a benchmark-only change.
    """
    _check_executor(executor)
    root = Path(directory)
    manifest_path = root / MANIFEST_NAME
    manifest = _read_manifest(manifest_path)
    attributes = [
        (entry["name"], int(entry["cardinality"]))
        for entry in manifest["attributes"]
    ]
    segments = []
    start = 0
    for entry in _check_shard_entries(manifest, manifest_path):
        context = f"shard {entry['shard_id']}"
        table_rel, table_crc, table_bytes = _file_fields(entry["table"])
        _verify_recorded_crc(root / table_rel, table_crc, table_bytes, context)
        try:
            table = load_table(root / table_rel)
        except FileNotFoundError:
            raise CorruptIndexError(
                f"{context}: {root / table_rel} is missing"
            )
        except CorruptIndexError as exc:
            raise CorruptIndexError(f"{context}: {exc}") from exc
        if [(spec.name, spec.cardinality) for spec in table.schema] != attributes:
            raise ShardError(
                f"{context}: table schema disagrees with the manifest"
            )
        _remember_loaded(root, table, entry["table"])
        segment = Segment(start, table)
        for index_entry in entry["indexes"]:
            segment = segment.with_index(
                _load_index(root, segment, index_entry, context)
            )
        segments.append(segment)
        start += table.num_records
    if start != int(manifest["num_records"]):
        raise ShardError(
            f"{manifest_path}: the manifest records {manifest['num_records']} "
            f"rows but its shards hold {start}"
        )
    return IncompleteDatabase.from_segments(segments)


def _load_index(root: Path, segment: Segment, entry: dict, context: str):
    """The manifest's index ``entry`` over ``segment``: loaded, or rebuilt
    from the segment's table when its file is corrupt or missing."""
    name, kind = entry["name"], entry["kind"]
    if kind not in _BITMAP_KINDS and kind != "vafile":
        raise ShardError(f"manifest names unloadable index kind {kind!r}")
    options = entry.get("options", {})
    rel, crc, nbytes = _file_fields(entry["file"])
    path = root / rel
    try:
        _verify_recorded_crc(path, crc, nbytes, context)
        if kind in _BITMAP_KINDS:
            index = load_bitmap_index_file(path)
        else:
            index = load_vafile_file(path, segment.table)
    except CorruptIndexError as exc:
        record("storage.index_rebuilds")
        warnings.warn(
            f"{context}: index {name!r} could not be loaded ({exc}); "
            f"rebuilding it from the shard table",
            RuntimeWarning,
            stacklevel=3,
        )
        return segment.build(name, kind, entry["attributes"], options)
    attached = segment.attach(name, kind, index, entry["attributes"], options)
    _remember_loaded(root, index, entry["file"])
    return attached
