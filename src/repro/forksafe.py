"""Fork-safety for the library's long-lived locks.

CPython's ``fork`` clones the whole process, including every
``threading.Lock`` — in whatever state some *other* thread held it at the
instant of the fork.  A child that inherits a mid-held lock deadlocks the
first time it touches the instrument (the owning thread does not exist in
the child, so the lock is never released).  The objects at risk here are
the module-level singletons that threads mutate concurrently: the metrics
registry and its per-instrument locks, the engines' locks, a sharded
database's assembly lock, the workload recorder's ring, and the JSONL
sink.

Instead of banning ``fork`` (a caller embedding the library may fork on
its own: a pre-forking server, ``multiprocessing`` under its ``fork`` start
method), every such object registers itself here;
:func:`os.register_at_fork` replaces all registered locks with fresh ones
in the child, *after* the fork, before user code runs.  Registration uses a
``WeakSet`` so caches and recorders die normally.

The reset is deliberately lossy about in-flight state: a mutation that was
mid-critical-section in another thread at fork time may leave that one
update torn in the child (e.g. a counter bumped but its histogram not).
That is inherent to fork — the guarantee here is *no deadlock and no
corruption of the lock objects themselves*, which is what a child that
goes on to query or record metrics needs.
"""

from __future__ import annotations

import os
import weakref

# numpy loads these on first use (np.median reads np.ma, the planner's fit
# calls np.linalg).  A child forked while another thread is mid-import
# inherits that module's import lock held, which no fork hook can reset,
# and hangs on its first use: so they are loaded before any fork.
import numpy.linalg  # noqa: F401
import numpy.ma  # noqa: F401

__all__ = ["register"]

#: Objects exposing ``_reset_after_fork()``; weakly held.
_RESETTABLE: weakref.WeakSet = weakref.WeakSet()


def register(obj) -> None:
    """Track ``obj``; its ``_reset_after_fork()`` runs in fork children."""
    _RESETTABLE.add(obj)


def _reset_all() -> None:
    for obj in list(_RESETTABLE):
        obj._reset_after_fork()


if hasattr(os, "register_at_fork"):  # absent on Windows
    os.register_at_fork(after_in_child=_reset_all)
