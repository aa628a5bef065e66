"""The serialized writer path: derive the next snapshot, publish it.

This is the one code path that changes a table's rows: engines and
indexes are fixed once built, and writers never mutate a published
snapshot.  Every operation here derives the next
:class:`~repro.shard.ShardedDatabase` from the current epoch's (frozen)
one, shard by shard, and hands it to the
:class:`~repro.serve.epoch.EpochManager`.  Readers holding a pin keep
querying their epoch untouched; new readers see the new one.

A mutation rebuilds only the shards whose rows it changes; every other
shard's engine (its table and built index objects) is shared by reference
with the previous snapshot, which is safe because no published engine is
ever mutated:

* ``append`` puts the new rows, which take the next ids, in the **last**
  shard;
* ``delete`` rebuilds only the shards holding a deleted id from their
  survivors and drops a shard it empties (later shards just start earlier);
* ``compact`` cuts the rows into equal ranges again and reuses every shard
  whose ``(start, size)`` comes out unchanged;
* ``create_index`` / ``drop_index`` give each shard a new engine over the
  same table and the same other index objects, and build or drop only the
  named index.

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
from repro.shard.sharded import ShardedDatabase, _row_ranges

__all__ = ["SnapshotWriter"]


def _rebuilt(
    like: IncompleteDatabase, table: IncompleteTable
) -> IncompleteDatabase:
    """A new engine over ``table`` with every index of ``like`` built afresh.

    Each index keeps the kind, attributes and options ``like`` recorded.
    """
    engine = IncompleteDatabase(table)
    for name in like.index_names:
        spec = like.get_index(name)
        engine.create_index(name, spec.kind, spec.attributes, **spec.options)
    return engine


def _reattached(
    engine: IncompleteDatabase, without: str
) -> IncompleteDatabase:
    """A new engine sharing ``engine``'s table and indexes but ``without``."""
    fresh = IncompleteDatabase(engine.table)
    for name in engine.index_names:
        if name != without:
            spec = engine.get_index(name)
            fresh.attach_index(
                name, spec.kind, spec.index, spec.attributes,
                options=spec.options,
            )
    return fresh


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

    def _publish(
        self,
        current: ShardedDatabase,
        engines: list[IncompleteDatabase],
        rebuilt: int,
        start_ns: int,
    ) -> int:
        """Assemble, persist (when disk-backed) and publish; the new epoch.

        ``engines`` are the next snapshot's shards in row order, ``rebuilt``
        of them built from their rows.
        """
        db = ShardedDatabase._from_shards(engines)
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
        record("writer.shards_reused", len(engines) - rebuilt)
        observe("epoch.publish_ns", time.perf_counter_ns() - start_ns)
        return epoch

    # -- mutations -------------------------------------------------------

    def append(
        self, rows: IncompleteTable | Mapping[str, "np.ndarray"]
    ) -> int:
        """Append rows in a new epoch; returns the epoch number.

        Existing record ids are stable; new rows take the next ids and join
        the last shard, the only one rebuilt.
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
            engines = [shard.database for shard in current.shards]
            last = engines[-1]
            engines[-1] = _rebuilt(last, concat_tables(last.table, rows))
            return self._publish(current, engines, 1, start)

    def delete(self, record_ids: Iterable[int]) -> int:
        """Remove rows by record id in a new epoch; returns the epoch.

        Removal is physical: surviving rows are renumbered densely (the
        id of a surviving row shifts down past each removed predecessor).
        Readers pinned to older epochs keep the old numbering.
        Only the shards holding a removed row are rebuilt; a shard left
        with no rows is dropped.
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
            engines = []
            rebuilt = 0
            for shard, hit in zip(current.shards, current._runs(ids)):
                engine = shard.database
                if hit.size:
                    if hit.size == engine.num_records:
                        continue
                    survivors = np.delete(
                        np.arange(engine.num_records), hit - shard.start
                    )
                    engine = _rebuilt(engine, engine.table.take(survivors))
                    rebuilt += 1
                engines.append(engine)
            return self._publish(current, engines, rebuilt, start)

    def compact(self) -> int:
        """Cut the rows into equal ranges again, in a fresh epoch.

        Appends since the last compaction sit in the last shard; this lays
        the rows out as ``ShardedDatabase(table, num_shards)`` would,
        rebuilding only the shards whose ``(start, size)`` changes.
        Returns the new epoch number.
        """
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            reusable = {
                (shard.start, shard.database.num_records): shard.database
                for shard in current.shards
            }
            like = current.shards[0].database
            engines = []
            rebuilt = 0
            for rows in _row_ranges(
                current.num_records,
                min(current.num_shards, current.num_records),
            ):
                engine = reusable.get((rows.start, len(rows)))
                if engine is None:
                    engine = _rebuilt(
                        like, current._rows(np.arange(rows.start, rows.stop))
                    )
                    rebuilt += 1
                engines.append(engine)
            return self._publish(current, engines, rebuilt, start)

    def create_index(
        self,
        name: str,
        kind: str,
        attributes: Iterable[str] | None = None,
        overwrite: bool = False,
        **options,
    ) -> int:
        """Publish a new epoch with one more index; returns the epoch.

        Only ``name`` is built, on every shard; the tables and the other
        indexes are shared with the current snapshot.
        """
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            if name in current.index_names and not overwrite:
                raise ReproError(
                    f"an index named {name!r} already exists "
                    f"(pass overwrite=True to replace it)"
                )
            engines = []
            for shard in current.shards:
                engine = _reattached(shard.database, without=name)
                engine.create_index(name, kind, attributes, **options)
                engines.append(engine)
            return self._publish(current, engines, 0, start)

    def drop_index(self, name: str) -> int:
        """Publish a new epoch without ``name``; returns the epoch."""
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            if name not in current.index_names:
                raise ReproError(f"no index named {name!r}")
            engines = [
                _reattached(shard.database, without=name)
                for shard in current.shards
            ]
            return self._publish(current, engines, 0, start)
