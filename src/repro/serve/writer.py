"""The serialized writer path: derive the next snapshot, publish it.

This is the one code path that changes a table's rows: segments and
indexes are fixed once built, and writers never mutate a published
snapshot.  Every operation here derives the next
:class:`~repro.core.engine.IncompleteDatabase` from the current epoch's
(frozen) one, segment by segment, and hands it to the
:class:`~repro.serve.epoch.EpochManager`.  Any database is written, one
segment or several.  Readers holding a pin keep querying their epoch
untouched; new readers see the new one.

A mutation rebuilds only the segments whose rows it changes; every other
segment record (its table and built index objects) is shared by
reference with the previous snapshot, which is safe because no published
segment is ever mutated:

* ``append`` puts the new rows, which take the next ids, in the **last**
  segment;
* ``delete`` rebuilds only the segments holding a deleted id from their
  survivors and drops a segment it empties (later segments just start
  earlier);
* ``compact`` cuts the rows into equal ranges again and reuses every
  segment whose ``(start, size)`` comes out unchanged;
* ``create_index`` / ``drop_index`` run the database's own DDL on a new,
  unfrozen database over the same segments, which builds or drops only
  the named index.

Disk-backed writers persist through
:func:`~repro.shard.manifest.save_sharded` with ``gc_stale=False``, which
hard-links the files of everything shared into the new generation
directory and writes only what changed.  The generation is committed by
atomically replacing ``manifest.json`` last, and the *previous* generation
is left on disk for the epoch manager's pin-count GC.  A crash anywhere in
the publish leaves the old manifest (and so the old epoch) fully loadable;
the partial new directory is swept as an orphan on the next startup.

One writer mutates at a time (an internal mutex serializes them); the
whole design trades write throughput for never blocking a reader.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from repro.core.engine import IncompleteDatabase
from repro.dataset.table import IncompleteTable, concat_tables
from repro.errors import QueryError, ReproError
from repro.observability import observe, record
from repro.serve.epoch import EpochManager
from repro.shard.manifest import MANIFEST_NAME, save_sharded
from repro.shard.sharded import _row_ranges

__all__ = ["SnapshotWriter"]


class SnapshotWriter:
    """Applies mutations by publishing new epochs through ``manager``.

    Parameters
    ----------
    manager:
        The epoch manager to publish through.
    directory:
        ``save_sharded`` root when snapshots are disk-backed; ``None``
        keeps every snapshot memory-only.  Must match the directory the
        manager was opened over.
    """

    def __init__(
        self,
        manager: EpochManager,
        directory: str | Path | None = None,
    ):
        self._manager = manager
        self._directory = Path(directory) if directory is not None else None
        self._mutex = threading.Lock()

    def _publish(self, db: IncompleteDatabase, rebuilt: int, start_ns: int) -> int:
        """Persist ``db`` (when disk-backed) and publish it; the new epoch.

        ``rebuilt`` of its segments were built from their rows.
        """
        if self._directory is None:
            epoch = self._manager.publish(db)
        else:
            save_sharded(
                db, self._directory, overwrite=True, gc_stale=False
            )
            manifest = json.loads(
                (self._directory / MANIFEST_NAME).read_text(encoding="utf-8")
            )
            generation = int(manifest["generation"])
            epoch = self._manager.publish(
                db,
                gen_dir=self._directory / f"gen-{generation:06d}",
                epoch=generation,
            )
        record("writer.shards_rebuilt", rebuilt)
        record("writer.shards_reused", db.num_shards - rebuilt)
        observe("epoch.publish_ns", time.perf_counter_ns() - start_ns)
        return epoch

    # -- mutations -------------------------------------------------------

    def append(
        self, rows: IncompleteTable | Mapping[str, "np.ndarray"]
    ) -> int:
        """Append rows in a new epoch; returns the epoch number.

        Existing record ids are stable; new rows take the next ids and join
        the last segment, the only one rebuilt.
        """
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            if not isinstance(rows, IncompleteTable):
                rows = IncompleteTable(
                    current.schema,
                    {name: np.asarray(col) for name, col in rows.items()},
                )
            if rows.num_records == 0:
                raise QueryError("no rows to append")
            segments = list(current.segments)
            last = segments[-1]
            segments[-1] = last.over(concat_tables(last.table, rows))
            return self._publish(
                IncompleteDatabase.from_segments(segments), 1, start
            )

    def delete(self, record_ids: Iterable[int]) -> int:
        """Remove rows by record id in a new epoch; returns the epoch.

        Removal is physical: surviving rows are renumbered densely (the
        id of a surviving row shifts down past each removed predecessor).
        Readers pinned to older epochs keep the old numbering.
        Only the segments holding a removed row are rebuilt; a segment
        left with no rows is dropped.
        """
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            ids = np.unique(np.asarray(list(record_ids), dtype=np.int64))
            if ids.size == 0:
                raise QueryError("no record ids to delete")
            if ids.min() < 0 or ids.max() >= current.num_records:
                raise QueryError(
                    f"record ids must be in [0, {current.num_records}); "
                    f"got range [{ids.min()}, {ids.max()}]"
                )
            if ids.size == current.num_records:
                raise ReproError(
                    "refusing to publish an empty snapshot (the mutation "
                    "would delete every row)"
                )
            segments = []
            rebuilt = 0
            starts = [segment.start for segment in current.segments[1:]]
            for segment, hit in zip(
                current.segments, np.split(ids, np.searchsorted(ids, starts))
            ):
                if hit.size:
                    if hit.size == segment.num_records:
                        continue
                    survivors = np.delete(
                        np.arange(segment.num_records), hit - segment.start
                    )
                    segment = segment.over(segment.table.take(survivors))
                    rebuilt += 1
                segments.append(segment)
            return self._publish(
                IncompleteDatabase.from_segments(segments), rebuilt, start
            )

    def compact(self) -> int:
        """Cut the rows into equal ranges again, in a fresh epoch.

        Appends since the last compaction sit in the last segment; this
        lays the rows out as ``ShardedDatabase(table, num_shards)`` would,
        rebuilding only the segments whose ``(start, size)`` changes.
        Returns the new epoch number.
        """
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            reusable = {
                (segment.start, segment.num_records): segment
                for segment in current.segments
            }
            like = current.segments[0]
            segments = []
            rebuilt = 0
            for rows in _row_ranges(
                current.num_records,
                min(current.num_shards, current.num_records),
            ):
                segment = reusable.get((rows.start, len(rows)))
                if segment is None:
                    segment = like.over(
                        current._rows(np.arange(rows.start, rows.stop))
                    )
                    rebuilt += 1
                segments.append(segment)
            return self._publish(
                IncompleteDatabase.from_segments(segments), rebuilt, start
            )

    def create_index(
        self,
        name: str,
        kind: str,
        attributes: Iterable[str] | None = None,
        overwrite: bool = False,
        **options,
    ) -> int:
        """Publish a new epoch with one more index; returns the epoch.

        Only ``name`` is built, on every segment; the tables and the other
        indexes are shared with the current snapshot.
        """
        with self._mutex:
            start = time.perf_counter_ns()
            db = IncompleteDatabase.from_segments(
                self._manager.current_database.segments
            )
            db.create_index(
                name, kind, attributes, overwrite=overwrite, **options
            )
            return self._publish(db, 0, start)

    def drop_index(self, name: str) -> int:
        """Publish a new epoch without ``name``; returns the epoch."""
        with self._mutex:
            start = time.perf_counter_ns()
            db = IncompleteDatabase.from_segments(
                self._manager.current_database.segments
            )
            db.drop_index(name)
            return self._publish(db, 0, start)

