"""Tests for :mod:`repro.forksafe`: a caller's own ``fork`` stays safe."""

import os
import threading

import pytest

from repro import observability as obs
from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.query.model import MissingSemantics, RangeQuery

QUERIES = [
    RangeQuery.from_bounds({"a": (2, 8)}),
    RangeQuery.from_bounds({"a": (1, 3), "b": (2, 4)}),
]


def test_fork_under_load_keeps_child_usable():
    """Forking while threads hammer telemetry must not deadlock the child.

    Regression test for the fork-safety audit: the :mod:`repro.forksafe`
    ``os.register_at_fork`` hooks re-arm every registered lock in the
    child, so a child forked mid-update can still record metrics and run
    queries.
    """
    if not hasattr(os, "fork"):
        pytest.skip("fork not available")
    table = generate_uniform_table(
        300, {"a": 10, "b": 5}, {"a": 0.2, "b": 0.1}, seed=11
    )
    db = IncompleteDatabase(table)
    db.create_index("ix", "bre")
    stop = threading.Event()

    def hammer():
        while not stop.is_set():
            obs.record("fork.test.counter")
            db.execute(QUERIES[0], MissingSemantics.IS_MATCH)

    with obs.use_registry():
        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(3):
                pid = os.fork()
                if pid == 0:
                    # Child: locks must be usable immediately.
                    try:
                        obs.record("fork.test.child")
                        db.execute(QUERIES[1], MissingSemantics.NOT_MATCH)
                        os._exit(0)
                    except BaseException:
                        os._exit(1)
                _, status = os.waitpid(pid, 0)
                assert os.waitstatus_to_exitcode(status) == 0
        finally:
            stop.set()
            for thread in threads:
                thread.join()
