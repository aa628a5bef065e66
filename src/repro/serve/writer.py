"""The serialized writer path: build the next snapshot, publish it.

Writers never mutate a published snapshot — every operation here reads
the current epoch's (frozen) database, builds a brand-new
:class:`~repro.shard.ShardedDatabase` with the mutation applied and the
same shard/partitioner/index configuration, and hands it to the
:class:`~repro.serve.epoch.EpochManager`.  Readers holding a pin keep
querying their epoch untouched; new readers see the new one.

Disk-backed writers persist through
:func:`~repro.shard.manifest.save_sharded` with ``gc_stale=False`` — the
fresh generation directory is committed by atomically replacing
``manifest.json`` last, and the *previous* generation is left on disk for
the epoch manager's pin-count GC.  A crash anywhere in the publish leaves
the old manifest (and so the old epoch) fully loadable; the partial new
directory is swept as an orphan on the next startup.

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

from repro.dataset.table import IncompleteTable, concat_tables
from repro.errors import QueryError, ReproError
from repro.observability import observe
from repro.serve.epoch import EpochManager
from repro.shard.manifest import MANIFEST_NAME, save_sharded
from repro.shard.sharded import ShardedDatabase

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

    # -- snapshot construction -------------------------------------------

    def _build_next(
        self,
        table: IncompleteTable,
        without: str | None = None,
    ) -> ShardedDatabase:
        """A new unfrozen database over ``table``, configured like current.

        Every index of the current snapshot except ``without`` is rebuilt
        with the kind, attributes and options its shards recorded.  The
        executor is not carried over: each snapshot gets its own inline one,
        because a shared instance would be closed under the live snapshot
        when a retiring epoch's database closes.
        """
        current = self._manager.current_database
        if table.num_records == 0:
            raise ReproError(
                "refusing to publish an empty snapshot (the mutation would "
                "delete every row)"
            )
        db = ShardedDatabase(
            table,
            num_shards=min(current.num_shards, table.num_records),
            partitioner=current.partitioner_name,
            cache_bytes=current._cache_bytes,
        )
        registry = current.shards[0].database
        for name in current.index_names:
            if name != without:
                spec = registry.get_index(name)
                db.create_index(
                    name, spec.kind, spec.attributes, **spec.options
                )
        return db

    def _publish(self, db: ShardedDatabase, start_ns: int) -> int:
        """Persist (when disk-backed) and publish; returns the new epoch."""
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
        observe("epoch.publish_ns", time.perf_counter_ns() - start_ns)
        return epoch

    # -- mutations -------------------------------------------------------

    def append(
        self, rows: IncompleteTable | Mapping[str, "np.ndarray"]
    ) -> int:
        """Append rows in a new epoch; returns the epoch number.

        Existing record ids are stable; new rows take the next ids.
        """
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            if not isinstance(rows, IncompleteTable):
                rows = IncompleteTable(
                    current.table.schema,
                    {name: np.asarray(col) for name, col in rows.items()},
                )
            table = concat_tables(current.table, rows)
            return self._publish(self._build_next(table), start)

    def delete(self, record_ids: Iterable[int]) -> int:
        """Remove rows by record id in a new epoch; returns the epoch.

        Removal is physical: surviving rows are renumbered densely (the
        id of a surviving row shifts down past each removed predecessor),
        matching what the engine's ``compact`` does after a tombstone
        delete.  Readers pinned to older epochs keep the old numbering.
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
            keep = np.setdiff1d(
                np.arange(current.num_records, dtype=np.int64), ids,
                assume_unique=True,
            )
            table = current.table.take(keep)
            return self._publish(self._build_next(table), start)

    def compact(self) -> int:
        """Rewrite the current state into a fresh epoch (and generation).

        With snapshot-per-write there is nothing logically deleted at the
        serving layer; compaction's value is operational — it rewrites
        every shard file into a new generation directory (defragmenting a
        directory that accumulated appends) and proves the publish path
        end-to-end.  Returns the new epoch number.
        """
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            return self._publish(self._build_next(current.table), start)

    def create_index(
        self,
        name: str,
        kind: str,
        attributes: Iterable[str] | None = None,
        overwrite: bool = False,
        **options,
    ) -> int:
        """Publish a new epoch with one more index; returns the epoch."""
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            if name in current.index_names and not overwrite:
                raise ReproError(
                    f"an index named {name!r} already exists "
                    f"(pass overwrite=True to replace it)"
                )
            db = self._build_next(current.table, without=name)
            db.create_index(name, kind, attributes, **options)
            return self._publish(db, start)

    def drop_index(self, name: str) -> int:
        """Publish a new epoch without ``name``; returns the epoch."""
        with self._mutex:
            start = time.perf_counter_ns()
            current = self._manager.current_database
            if name not in current.index_names:
                raise ReproError(f"no index named {name!r}")
            return self._publish(
                self._build_next(current.table, without=name), start
            )
