"""A small reader-writer lock for the engine's DDL fence.

:class:`ReadWriteLock` lets any number of query executions proceed
concurrently while index DDL (``create_index`` / ``attach_index`` /
``drop_index`` on :class:`~repro.core.engine.IncompleteDatabase`) gets
exclusive access — so a reader that is mid-batch can never observe a
*torn generation*: half its queries answered by the index set before the
DDL and half by the one after.  An engine's rows never change in place
(new rows arrive as a new snapshot, see :mod:`repro.serve.writer`), so
DDL is all the lock orders.

Properties:

* **Reentrant for readers.**  Read depth is tracked per thread, so the
  query body (which holds the lock across planning and evaluation) can
  call the planner, which takes it too, without deadlocking, even while
  a writer is queued.
* **Writer preference.**  A waiting writer blocks *new* top-level
  readers, so a steady query stream cannot starve DDL forever.
* **Fork-safe.**  Holders register with :mod:`repro.forksafe`; a fork
  child gets a fresh lock instead of one cloned mid-held by a parent
  thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["ReadWriteLock"]


class ReadWriteLock:
    """Shared-read / exclusive-write lock with reentrant read sections."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False
        self._local = threading.local()

    def _reset_after_fork(self) -> None:
        # A fork child must not inherit reader/writer state held by parent
        # threads that do not exist in the child.
        self._cond = threading.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False
        self._local = threading.local()

    @property
    def read_depth(self) -> int:
        """This thread's current read-section nesting depth."""
        return getattr(self._local, "depth", 0)

    def read(self) -> "_SharedHold":
        """Hold the lock shared for the ``with`` body (reentrant)."""
        return _SharedHold(self)

    @contextmanager
    def write(self) -> Iterator[None]:
        """Hold the lock exclusive for the ``with`` body (not reentrant)."""
        if getattr(self._local, "depth", 0):
            raise RuntimeError(
                "cannot acquire the write lock inside a read section "
                "(a query path is trying to mutate the database)"
            )
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class _SharedHold:
    """One ``with lock.read():`` section.  A class rather than a generator
    context manager: every query takes one, so its cost is per-query
    overhead."""

    __slots__ = ("_lock",)

    def __init__(self, lock: ReadWriteLock):
        self._lock = lock

    def __enter__(self) -> None:
        lock = self._lock
        depth = getattr(lock._local, "depth", 0)
        if depth == 0:
            with lock._cond:
                while lock._writing or lock._writers_waiting:
                    lock._cond.wait()
                lock._readers += 1
        lock._local.depth = depth + 1

    def __exit__(self, *exc) -> None:
        lock = self._lock
        lock._local.depth -= 1
        if lock._local.depth == 0:
            with lock._cond:
                lock._readers -= 1
                if lock._readers == 0:
                    lock._cond.notify_all()
