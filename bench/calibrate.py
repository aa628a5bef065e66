"""Machine-speed calibration, interleaved with the measured work.

The sandbox this benchmark runs in is a shared VM whose speed moves by
10-30 % for seconds at a time (measured: a fixed pure-CPU loop, alone on
the box, runs at three distinct rates).  A 15 s run cannot average that
away, and two runs minutes apart land in different regimes, so raw
wall-clock numbers do not repeat within any bound worth gating on.

So the load loops run a small fixed *calibration unit* — some numpy word
operations plus some interpreter work, about 0.4 ms — every few
milliseconds of measured work, and every timing metric of a sub-window is
scaled by how fast the units ran in that same sub-window relative to
:data:`REFERENCE_RATE`.  What is reported is the metric *at the reference
machine speed*: on a quiet box running at that speed it equals the raw
number, which the run prints beside it.  In the spirit of ROADMAP's
"wall-clock enters the gate only as within-run ratios".

A unit's cost is taken from the thread's CPU clock, not the wall clock, so
a unit that merely waited for a core (the server child was using both)
does not read as a slow machine.  The time the units take is kept out of
every latency, and is subtracted from the window when computing rates.
"""

from __future__ import annotations

import time

import numpy as np

#: Units per CPU-second on the box the benchmark was written on (2-core
#: 2.1 GHz Xeon VM) in its most common state.  Only a scale: it makes the
#: normalised numbers read like that box's raw ones.
REFERENCE_RATE = 2600.0
BURST_S = 0.05

_WORDS = np.arange(1, 4001, dtype=np.int64) * 2654435761


def unit() -> None:
    """A fixed piece of work shaped like the program's: word ops and bytecode."""
    for _ in range(50):
        _WORDS & (_WORDS >> 1)
    total = 0
    for i in range(5000):
        total += i * i


class Calibrator:
    """Runs a unit after every ``every`` seconds of work; one per thread.

    ``marks`` holds ``(when, wall_seconds, cpu_seconds)`` per unit, ``when``
    on the ``perf_counter`` clock.
    """

    def __init__(self, every: float):
        self.every = every
        self.marks: list[tuple[float, float, float]] = []
        self._owed = 0.0

    def tick(self, worked: float) -> None:
        """Account ``worked`` seconds of measured work; calibrate when due."""
        self._owed += worked
        if self._owed >= self.every:
            self._owed = 0.0
            self.run()

    def run(self) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        unit()
        self.marks.append((wall, time.perf_counter() - wall, time.thread_time() - cpu))


def speed(marks) -> float:
    """Machine speed over ``marks`` relative to the reference (1.0 = reference)."""
    return len(marks) / sum(mark[2] for mark in marks) / REFERENCE_RATE


def bracket(function, *args):
    """Run ``function`` between two ``BURST_S`` bursts of units.

    Returns ``(value, wall seconds, machine speed around the call)``.
    """
    calibrator = Calibrator(0.0)

    def burst():
        until = time.perf_counter() + BURST_S
        while time.perf_counter() < until:
            calibrator.run()

    burst()
    start = time.perf_counter()
    value = function(*args)
    elapsed = time.perf_counter() - start
    burst()
    return value, elapsed, speed(calibrator.marks)
