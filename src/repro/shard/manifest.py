"""Persist and restore a :class:`~repro.shard.ShardedDatabase`.

Layout on disk (all paths relative to the manifest's directory)::

    manifest.json                 -- format tag, schema, checksums, catalog
    gen-000001/shard-0/table.npz  -- shard 0's rows (repro.dataset.io)
    gen-000001/shard-0/<name>.idx -- one file per attached index
    gen-000001/shard-1/...

``manifest.json`` is the source of truth: it names the full-table schema
and, for every shard in row order, its table file and the ``(name, kind,
attributes, options, file)`` of each serialized index.  Shard *k* owns the
global rows that follow shard *k - 1*'s, so no row-id map is stored.  Only
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
* saving over an existing sharded directory requires ``overwrite=True`` —
  refusing beats silently mixing shard files from two different saves;
* loading degrades gracefully: a corrupt or missing *index* file is
  reported (``storage.index_rebuilds`` counter + ``RuntimeWarning``) and
  the index is rebuilt from the shard table, while a corrupt *table* file
  is a hard :class:`~repro.errors.CorruptIndexError` naming the file and
  shard.

Loading reads shard tables and indexes back as serialized, so indexes stay
aligned with their rows.  Malformed manifests are rejected with errors
naming the offending shard.  A v1/v2 manifest (a ``partitioner`` name and a
``rows.npy`` id map per shard) loads only when it is ``contiguous`` and
every map, checked against the file, is its shard's row range; any other
layout is a ``ShardError`` naming its partitioner.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import warnings
import weakref
from pathlib import Path

import numpy as np

from repro.core.engine import IncompleteDatabase
from repro.dataset.io import load_table, save_table
from repro.errors import CorruptIndexError, ShardError
from repro.observability import record
from repro.shard.sharded import ShardedDatabase, _check_executor
from repro.storage import integrity
from repro.storage.integrity import crc32, file_crc32, is_framed, parse_frame
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
_SUPPORTED_VERSIONS = frozenset({1, 2, 3})

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
    """``(path, crc32, bytes)`` from a record or a bare v1 path string."""
    if isinstance(entry, str):
        return entry, None, None
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
    """Note a file :func:`load_sharded` read ``owner`` from, if checksummed."""
    rel, crc, nbytes = _file_fields(fields)
    if crc is not None:
        _committed[owner] = (
            root.resolve(), {"path": rel, "crc32": crc, "bytes": nbytes}
        )


def save_sharded(
    db: ShardedDatabase,
    directory: str | os.PathLike,
    overwrite: bool = False,
    gc_stale: bool = True,
) -> Path:
    """Write ``db`` (shard tables and indexes, in row order) under ``directory``.

    Returns the manifest path.  The directory is created if needed.  If it
    already holds a sharded database (or stray ``gen-*``/``shard-*``
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
    uses this: readers may still hold a pinned epoch whose engines mmap
    files in an older generation, so stale generations are garbage-collected
    only when their pin count drops to zero (orphans stay benign to both
    ``fsck`` and :func:`load_sharded`).
    """
    root = Path(directory)
    for name in db.index_names:
        kind = db.shards[0].database.get_index(name).kind
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
            f"{root} already holds a sharded database save; pass "
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
    for shard in db.shards:
        shard_rel = f"{gen_rel}/{_shard_dir(shard.shard_id)}"
        (root / shard_rel).mkdir(parents=True, exist_ok=True)
        table = shard.database.table
        entry = {
            "shard_id": shard.shard_id,
            "num_records": table.num_records,
            "table": placer.place(
                table, f"{shard_rel}/table.npz",
                lambda path: save_table(table, path),
            ),
            "indexes": [],
        }
        for name in db.index_names:
            attached = shard.database.get_index(name)
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
    if version not in _SUPPORTED_VERSIONS:
        raise ShardError(
            f"{manifest_path}: unsupported manifest version {version!r} "
            f"(this build reads {sorted(_SUPPORTED_VERSIONS)})"
        )
    if version >= 2:
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
    if recorded_crc is None:
        return  # v1 manifest: nothing recorded
    actual_crc, actual_bytes = file_crc32(path)
    if recorded_bytes is not None and actual_bytes != recorded_bytes:
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


def _check_legacy_row_map(
    root: Path, entry: dict, start: int, num_rows: int, context: str
) -> None:
    """A v1/v2 shard's ``rows.npy`` id map must be exactly its row range."""
    rel, crc, nbytes = _file_fields(entry["rows"])
    path = root / rel
    _verify_recorded_crc(path, crc, nbytes, context)
    try:
        data = path.read_bytes()
        if is_framed(data):
            data = b"".join(p for _, p in parse_frame(data, source=str(path)))
        else:
            record("storage.legacy_loads")
        rows = np.load(io.BytesIO(data), allow_pickle=False)
    except CorruptIndexError as exc:
        raise CorruptIndexError(f"{context}: {exc}") from exc
    except (ValueError, OSError, EOFError) as exc:
        raise CorruptIndexError(
            f"{context}: corrupt row-map file {path} ({exc})"
        ) from exc
    if not np.array_equal(rows, np.arange(start, start + num_rows)):
        raise ShardError(
            f"{context}: row map {path} is not the shard's row range "
            f"{start}..{start + num_rows - 1}; only row-range layouts load"
        )


def load_sharded(
    directory: str | os.PathLike,
    executor: str | None = None,
) -> ShardedDatabase:
    """Rebuild a :class:`ShardedDatabase` saved by :func:`save_sharded`.

    Table files are load-bearing: if one is missing or fails its checksum
    the load raises :class:`CorruptIndexError` naming the file and shard
    (so is a v1/v2 row-map file).  Index files are derived state: a
    corrupt or missing index file is reported (``RuntimeWarning`` +
    ``storage.index_rebuilds`` counter) and that shard's index is rebuilt
    from its table using the options recorded in the manifest, so the
    database still opens and answers queries identically.

    ``executor`` is as on :class:`ShardedDatabase`, and is checked before
    any file is opened.
    """
    _check_executor(executor)
    root = Path(directory)
    manifest_path = root / MANIFEST_NAME
    manifest = _read_manifest(manifest_path)
    partitioner = manifest.get("partitioner", "contiguous")
    if partitioner != "contiguous":
        raise ShardError(
            f"{manifest_path}: shards laid out by the {partitioner!r} "
            f"partitioner cannot be loaded; shards must be row ranges "
            f"('contiguous')"
        )
    attributes = [
        (entry["name"], int(entry["cardinality"]))
        for entry in manifest["attributes"]
    ]
    entries = _check_shard_entries(manifest, manifest_path)
    engines = []
    start = 0
    for entry in entries:
        context = f"shard {entry['shard_id']}"
        table_rel, table_crc, table_bytes = _file_fields(entry["table"])
        _verify_recorded_crc(root / table_rel, table_crc, table_bytes, context)
        try:
            shard_table = load_table(root / table_rel)
        except FileNotFoundError:
            raise CorruptIndexError(
                f"{context}: {root / table_rel} is missing"
            )
        except CorruptIndexError as exc:
            raise CorruptIndexError(f"{context}: {exc}") from exc
        if [
            (spec.name, spec.cardinality) for spec in shard_table.schema
        ] != attributes:
            raise ShardError(
                f"{context}: table schema disagrees with the manifest"
            )
        if "rows" in entry:
            _check_legacy_row_map(
                root, entry, start, shard_table.num_records, context
            )
        start += shard_table.num_records
        engines.append(IncompleteDatabase(shard_table))
    if start != int(manifest["num_records"]):
        raise ShardError(
            f"{manifest_path}: the manifest records {manifest['num_records']} "
            f"rows but its shards hold {start}"
        )
    db = ShardedDatabase._from_shards(engines)
    for entry in entries:
        shard = db.shards[entry["shard_id"]]
        _remember_loaded(root, shard.database.table, entry["table"])
        for index_entry in entry["indexes"]:
            kind = index_entry["kind"]
            if kind not in _BITMAP_KINDS and kind != "vafile":
                raise ShardError(
                    f"manifest names unloadable index kind {kind!r}"
                )
            rel, crc, nbytes = _file_fields(index_entry["file"])
            path = root / rel
            try:
                _verify_recorded_crc(
                    path, crc, nbytes, f"shard {entry['shard_id']}"
                )
                if kind in _BITMAP_KINDS:
                    index = load_bitmap_index_file(path)
                else:
                    index = load_vafile_file(path, shard.database.table)
            except CorruptIndexError as exc:
                record("storage.index_rebuilds")
                warnings.warn(
                    f"shard {entry['shard_id']}: index "
                    f"{index_entry['name']!r} could not be loaded ({exc}); "
                    f"rebuilding it from the shard table",
                    RuntimeWarning,
                    stacklevel=2,
                )
                shard.database.create_index(
                    index_entry["name"],
                    kind,
                    attributes=index_entry["attributes"],
                    **index_entry.get("options", {}),
                )
                continue
            shard.database.attach_index(
                index_entry["name"],
                kind,
                index,
                attributes=index_entry["attributes"],
                options=index_entry.get("options", {}),
            )
            _remember_loaded(root, index, index_entry["file"])
    return db
