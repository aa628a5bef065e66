"""The serialized writer path: derive the next snapshot, publish it.

Writers never mutate a published snapshot.  Every operation here derives
the next :class:`~repro.shard.ShardedDatabase` from the current epoch's
(frozen) one, shard by shard, and hands it to the
:class:`~repro.serve.epoch.EpochManager`.  Readers holding a pin keep
querying their epoch untouched; new readers see the new one.

A mutation rebuilds only the shards whose rows it changes; every other
shard's engine (its table and built index objects) is shared by reference
with the previous snapshot, which is safe because no published engine is
ever mutated:

* ``append`` puts the new rows in the **last** shard, whatever the
  partitioner (the shards stay a partition of the row ids);
* ``delete`` rebuilds only the shards holding a deleted id from their
  survivors, drops a shard it empties, and renumbers every other shard's
  global ids in place;
* ``compact`` re-applies the recorded partitioner and reuses every shard
  whose rows come out unchanged;
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
from repro.shard.partition import get_partitioner
from repro.shard.sharded import ShardedDatabase

__all__ = ["SnapshotWriter"]


def _rebuilt(
    like: IncompleteDatabase, table: IncompleteTable, cache_bytes: int
) -> IncompleteDatabase:
    """A new engine over ``table`` with every index of ``like`` built afresh.

    Each index keeps the kind, attributes and options ``like`` recorded.
    """
    engine = IncompleteDatabase(table, cache_bytes=cache_bytes)
    for name in like.index_names:
        spec = like.get_index(name)
        engine.create_index(name, spec.kind, spec.attributes, **spec.options)
    return engine


def _reattached(
    engine: IncompleteDatabase, cache_bytes: int, without: str
) -> IncompleteDatabase:
    """A new engine sharing ``engine``'s table and indexes but ``without``."""
    fresh = IncompleteDatabase(engine.table, cache_bytes=cache_bytes)
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
        table: IncompleteTable,
        shards: list[tuple[np.ndarray, IncompleteDatabase]],
        rebuilt: int,
        start_ns: int,
    ) -> int:
        """Assemble, persist (when disk-backed) and publish; the new epoch.

        ``shards`` are the next snapshot's ``(global_ids, engine)`` pairs,
        ``rebuilt`` of them with engines built from their rows.  The
        executor is not carried over: each snapshot gets its own inline
        one, because a shared instance would be closed under the live
        snapshot when a retiring epoch's database closes.
        """
        db = ShardedDatabase._from_shards(
            table, current.partitioner_name, shards,
            cache_bytes=current._cache_bytes,
        )
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
        record("writer.shards_reused", len(shards) - rebuilt)
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
                    current.table.schema,
                    {name: np.asarray(col) for name, col in rows.items()},
                )
            if rows.num_records == 0:
                raise QueryError("no rows to append")
            n = current.num_records
            shards = [(s.global_ids, s.database) for s in current.shards]
            ids, last = shards[-1]
            shards[-1] = (
                np.concatenate([
                    ids, np.arange(n, n + rows.num_records, dtype=np.int64)
                ]),
                _rebuilt(
                    last, concat_tables(last.table, rows),
                    current._cache_bytes,
                ),
            )
            return self._publish(
                current, concat_tables(current.table, rows), shards, 1, start
            )

    def delete(self, record_ids: Iterable[int]) -> int:
        """Remove rows by record id in a new epoch; returns the epoch.

        Removal is physical: surviving rows are renumbered densely (the
        id of a surviving row shifts down past each removed predecessor),
        matching what the engine's ``compact`` does after a tombstone
        delete.  Readers pinned to older epochs keep the old numbering.
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
            shards = []
            rebuilt = 0
            for shard in current.shards:
                global_ids, engine = shard.global_ids, shard.database
                hit = np.isin(global_ids, ids, assume_unique=True)
                if hit.any():
                    survivors = np.flatnonzero(~hit)
                    if survivors.size == 0:
                        continue
                    global_ids = global_ids[survivors]
                    engine = _rebuilt(
                        engine, engine.table.take(survivors),
                        current._cache_bytes,
                    )
                    rebuilt += 1
                shards.append(
                    (global_ids - np.searchsorted(ids, global_ids), engine)
                )
            keep = np.setdiff1d(
                np.arange(current.num_records, dtype=np.int64), ids,
                assume_unique=True,
            )
            return self._publish(
                current, current.table.take(keep), shards, rebuilt, start
            )

    def compact(self) -> int:
        """Re-apply the partitioner in a fresh epoch (and generation).

        Appends since the last compaction sit in the last shard; this lays
        the rows out again as the recorded partitioner would, rebuilding
        the shards whose rows change and reusing the rest.  Returns the new
        epoch number.
        """
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            table = current.table
            assignment = get_partitioner(current.partitioner_name).partition(
                table, min(current.num_shards, table.num_records)
            )
            like = current.shards[0].database
            shards = []
            rebuilt = 0
            for ids in assignment.shards:
                engine = next(
                    (
                        shard.database for shard in current.shards
                        if np.array_equal(shard.global_ids, ids)
                    ),
                    None,
                )
                if engine is None:
                    engine = _rebuilt(
                        like, table.take(ids), current._cache_bytes
                    )
                    rebuilt += 1
                shards.append((ids, engine))
            return self._publish(current, table, shards, rebuilt, start)

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
            shards = []
            for shard in current.shards:
                engine = _reattached(
                    shard.database, current._cache_bytes, without=name
                )
                engine.create_index(name, kind, attributes, **options)
                shards.append((shard.global_ids, engine))
            return self._publish(current, current.table, shards, 0, start)

    def drop_index(self, name: str) -> int:
        """Publish a new epoch without ``name``; returns the epoch."""
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            if name not in current.index_names:
                raise ReproError(f"no index named {name!r}")
            shards = [
                (
                    shard.global_ids,
                    _reattached(
                        shard.database, current._cache_bytes, without=name
                    ),
                )
                for shard in current.shards
            ]
            return self._publish(current, current.table, shards, 0, start)
