"""Epoch-based MVCC snapshot management for the serving layer.

An *epoch* is one immutable published state of the database: a frozen
:class:`~repro.core.engine.IncompleteDatabase` (any database, one segment
or several) plus (when disk-backed) the generation directory holding its
files.  It is how a served database changes, since no published segment
or index is ever changed in place:

1. Readers :meth:`~EpochManager.pin` the current epoch on entry and
   release it on exit; a pinned snapshot never changes underneath them.
2. Writers build the *next* snapshot (see
   :class:`~repro.serve.writer.SnapshotWriter`) and
   :meth:`~EpochManager.publish` it; new readers immediately pin the new
   epoch while in-flight readers keep the old one.
3. A superseded epoch is garbage-collected — its database closed and its
   generation directory removed — only when its pin count drops to zero.

Disk-backed managers ride the PR-5 commit protocol: each published epoch
is a ``gen-%06d`` directory committed by atomically replacing
``manifest.json`` last (``save_sharded(..., gc_stale=False)`` leaves the
previous epoch's directory for the pin-count GC here).  A crash at any
point during a publish therefore leaves the previous epoch both loadable
and served; partially-written generation directories from a crashed
publish are benign orphans that :meth:`EpochManager` sweeps at startup.
"""

from __future__ import annotations

import shutil
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.core.engine import IncompleteDatabase
from repro.errors import ReproError, ShardError
from repro.observability import get_registry, record
from repro.shard.manifest import MANIFEST_NAME, _generation_of

__all__ = ["EpochManager", "EpochStats", "PinnedEpoch"]


@dataclass(frozen=True)
class EpochStats:
    """Point-in-time view of the epoch lifecycle."""

    current_epoch: int
    #: Live (not yet GC'd) epochs, including the current one.
    retained: int
    #: Total outstanding pins across all epochs.
    pinned: int
    published: int
    gcs: int


class _EpochState:
    """One retained epoch: its snapshot, optional directory, pin count."""

    __slots__ = ("epoch", "database", "gen_dir", "pins")

    def __init__(
        self, epoch: int, database: IncompleteDatabase, gen_dir: Path | None
    ):
        self.epoch = epoch
        self.database = database
        self.gen_dir = gen_dir
        self.pins = 0


class PinnedEpoch:
    """A reader's lease on one epoch; release it (or exit the ``with``).

    ``database`` is the frozen snapshot the reader queries; it is
    guaranteed not to be closed or garbage-collected until every pin on
    the epoch is released.  ``release()`` is idempotent.
    """

    __slots__ = ("_manager", "_state", "_released")

    def __init__(self, manager: "EpochManager", state: _EpochState):
        self._manager = manager
        self._state = state
        self._released = False

    @property
    def epoch(self) -> int:
        return self._state.epoch

    @property
    def database(self) -> IncompleteDatabase:
        return self._state.database

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._manager._unpin(self._state)

    def __enter__(self) -> "PinnedEpoch":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class EpochManager:
    """Pin/publish/GC coordinator over immutable database snapshots.

    Parameters
    ----------
    database:
        The initial snapshot.  It is frozen on entry (index DDL on it now
        raises); the manager owns it and every later published snapshot,
        closing each when its epoch is garbage-collected (and the rest on
        :meth:`close`).
    directory:
        Root of a :func:`~repro.shard.manifest.save_sharded` layout when
        the snapshots are disk-backed (``None`` for memory-only serving).
        The starting epoch number is the committed manifest generation,
        and orphan ``gen-*`` directories from a crashed publish are swept
        immediately.
    """

    def __init__(
        self,
        database: IncompleteDatabase,
        directory: str | Path | None = None,
    ):
        self._lock = threading.Lock()
        self._directory = Path(directory) if directory is not None else None
        self._published = 0
        self._gcs = 0
        self._closed = False
        epoch = 1
        gen_dir = None
        if self._directory is not None:
            epoch = self._committed_generation()
            gen_dir = self._directory / f"gen-{epoch:06d}"
            self._sweep_orphans(keep=epoch)
        database.freeze()
        database.snapshot_epoch = epoch
        state = _EpochState(epoch, database, gen_dir)
        self._epochs: dict[int, _EpochState] = {epoch: state}
        self._current = epoch
        get_registry().gauge("epoch.retained").set(1.0)
        get_registry().gauge("epoch.pinned").set(0.0)

    # -- disk layout -----------------------------------------------------

    def _committed_generation(self) -> int:
        """The generation number the on-disk manifest currently commits."""
        import json

        manifest_path = self._directory / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            return int(manifest["generation"])
        except (OSError, ValueError, KeyError) as exc:
            raise ReproError(
                f"{manifest_path} does not name a committed generation "
                f"({exc}); is this a save_sharded directory?"
            ) from exc

    def _sweep_orphans(self, keep: int) -> int:
        """Remove ``gen-*`` directories other than the committed one.

        Anything besides the committed generation is either debris from a
        publish that crashed before its manifest commit, or a stale epoch
        whose GC itself crashed; both are safe to delete because no
        manifest references them and no pins exist yet at startup.
        """
        swept = 0
        for child in self._directory.iterdir():
            if not child.is_dir():
                continue
            generation = _generation_of(child.name)
            if generation is not None and generation != keep:
                shutil.rmtree(child, ignore_errors=True)
                swept += 1
        if swept:
            record("epoch.orphans_swept", swept)
        return swept

    # -- lifecycle -------------------------------------------------------

    @property
    def current_epoch(self) -> int:
        """The epoch new readers pin."""
        return self._current

    @property
    def current_database(self) -> IncompleteDatabase:
        """The current epoch's snapshot (for non-pinning introspection)."""
        with self._lock:
            return self._epochs[self._current].database

    def pin(self) -> PinnedEpoch:
        """Pin the current epoch; release the returned lease when done."""
        with self._lock:
            if self._closed:
                raise ReproError("this EpochManager has been closed")
            state = self._epochs[self._current]
            state.pins += 1
        record("epoch.pins")
        get_registry().gauge("epoch.pinned").inc()
        return PinnedEpoch(self, state)

    def _unpin(self, state: _EpochState) -> None:
        with self._lock:
            state.pins -= 1
            stale = state.pins == 0 and state.epoch != self._current
            if stale:
                del self._epochs[state.epoch]
        record("epoch.unpins")
        get_registry().gauge("epoch.pinned").dec()
        if stale:
            self._gc(state)

    def publish(
        self,
        database: IncompleteDatabase,
        gen_dir: str | Path | None = None,
        epoch: int | None = None,
    ) -> int:
        """Install ``database`` as the new current epoch; returns its number.

        The previous epoch stays retained (and its files stay on disk)
        until its last pin is released.  ``gen_dir`` names the generation
        directory backing the snapshot, if any; ``epoch`` overrides the
        default ``current + 1`` numbering — the disk-backed writer passes
        the committed manifest generation so epoch numbers and ``gen-*``
        directory names stay aligned across restarts.
        """
        database.freeze()
        with self._lock:
            if self._closed:
                raise ReproError("this EpochManager has been closed")
            number = epoch if epoch is not None else self._current + 1
            if number <= self._current:
                raise ReproError(
                    f"epoch {number} does not advance the current epoch "
                    f"{self._current}"
                )
            database.snapshot_epoch = number
            state = _EpochState(
                number, database,
                Path(gen_dir) if gen_dir is not None else None,
            )
            previous = self._epochs[self._current]
            self._epochs[number] = state
            self._current = number
            self._published += 1
            stale = previous.pins == 0
            if stale:
                del self._epochs[previous.epoch]
        record("epoch.publishes")
        get_registry().gauge("epoch.retained").set(float(len(self._epochs)))
        if stale:
            self._gc(previous)
        return number

    def _gc(self, state: _EpochState) -> None:
        """Reclaim one unpinned, superseded epoch."""
        try:
            state.database.close()
        except ShardError:
            pass  # already closed by an owner race; the goal is reclaim
        if state.gen_dir is not None:
            shutil.rmtree(state.gen_dir, ignore_errors=True)
        record("epoch.gcs")
        with self._lock:
            self._gcs += 1
            retained = len(self._epochs)
        get_registry().gauge("epoch.retained").set(float(retained))

    def stats(self) -> EpochStats:
        """Current lifecycle counters (for ``/epochs`` and tests)."""
        with self._lock:
            return EpochStats(
                current_epoch=self._current,
                retained=len(self._epochs),
                pinned=sum(s.pins for s in self._epochs.values()),
                published=self._published,
                gcs=self._gcs,
            )

    def close(self) -> None:
        """Close every retained snapshot (current epoch's files are kept)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            states = list(self._epochs.values())
            self._epochs.clear()
        for state in states:
            try:
                state.database.close()
            except ShardError:
                pass
            if state.gen_dir is not None and state.epoch != self._current:
                shutil.rmtree(state.gen_dir, ignore_errors=True)
