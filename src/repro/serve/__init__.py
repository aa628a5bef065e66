"""Concurrent query serving with epoch-based MVCC snapshots.

This package turns the library into a server (ROADMAP item 1):

* :class:`~repro.serve.epoch.EpochManager` — readers pin an immutable
  snapshot (a frozen :class:`~repro.core.engine.IncompleteDatabase`) on entry and
  unpin on exit; writers publish a *new* snapshot; stale snapshots are
  garbage-collected only when their pin count drops to zero.  Disk-backed
  snapshots reuse the PR-5 generation-directory commit protocol, so a
  crash at any point during a publish leaves the previous epoch loadable.
* :class:`~repro.serve.writer.SnapshotWriter` — serialized writer path:
  ``append`` / ``delete`` / ``compact`` / ``create_index`` /
  ``drop_index`` each build the next snapshot from the current one and
  publish it atomically.
* :class:`~repro.serve.service.QueryService` — a one-thread HTTP loop
  (plus one writer thread) exposing JSON endpoints for range /
  boolean / batch / count / explain queries (per-request semantics and
  deadline) plus the write operations, with admission control and
  graceful drain.  Every request is metered through ``serve.*`` metrics
  and the workload recorder.

See ``docs/serving.md`` for the endpoint reference and epoch lifecycle.
"""

from repro.serve.epoch import EpochManager, EpochStats, PinnedEpoch
from repro.serve.service import QueryService
from repro.serve.writer import SnapshotWriter

__all__ = [
    "EpochManager",
    "EpochStats",
    "PinnedEpoch",
    "QueryService",
    "SnapshotWriter",
]
