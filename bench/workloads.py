"""The four workloads' measured (untraced) runs and their end-to-end metrics.

Library workloads (``bitmap_range``, ``vafile_range``) are a closed loop
of one caller inside this process.  Served workloads (``served_read``,
``served_read_write``) drive a ``QueryService`` in a child process over
keep-alive connections.  Every run is: set up (several times, median
reported), warm up, measure for ``seconds`` split into six sub-windows,
then verify the sampled answers against the oracle.

Timing metrics are reported at the reference machine speed: each
sub-window's numbers are scaled by the speed the interleaved calibration
units measured in that sub-window (see :mod:`calibrate`); the raw values
are kept as notes.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import data
import loadgen
import oracle
import target

WARMUP_S = 2.0
SUB_WINDOWS = 6
SETUP_REPEATS = 3
#: Measured work between calibration units: the library loop's, and each
#: served connection's (which would otherwise sit idle that long).
LIBRARY_CALIBRATE_EVERY_S = 0.01
SERVED_CALIBRATE_EVERY_S = 0.05
#: Seconds between scheduled writes.  A write is a whole-snapshot rebuild
#: that takes well over a second beside a reader on 2 cores, so today the
#: writer is always behind its schedule and writes run back to back; the
#: lateness is reported, and the reads are measured with a write always in
#: flight, which repeats better than a mix of the two regimes would.
WRITE_PERIOD_S = 1.0

LIBRARY = {
    # name -> (index kinds built, `using` cycle over op positions)
    "bitmap_range": (("bre", "bee"), ("bre", "bee")),
    "vafile_range": (("vafile",), ("vafile",)),
}
SERVED = {
    # name -> reader connections (the writer, if any, takes the other one)
    "served_read": 2,
    "served_read_write": 1,
}
WORKLOADS = (*LIBRARY, *SERVED)


@dataclass
class Result:
    """What one run reports."""

    workload: str
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    notes: dict = field(default_factory=dict)     # sample counts and the like

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def directory_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def committed_generation(directory: Path) -> tuple[int, Path]:
    """The generation ``manifest.json`` points at — also the service's epoch — and its directory."""
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    generation = int(manifest["generation"])
    return generation, directory / f"gen-{generation:06d}"


def window_metrics(result: Result, samples, edges: np.ndarray, cpu_marks, marks,
                   callers: int, own_process: bool) -> None:
    """qps / p50 / p90 / cpu per op, per sub-window, at the reference machine speed.

    ``samples`` are ``(end_time, latency_s, ok)``; ``cpu_marks`` the CPU
    seconds of the process under test at each of ``edges``; ``marks`` the
    calibration units of all ``callers`` threads.  ``own_process`` says the
    units ran in the process under test, so their CPU is not the program's.
    """
    good = [s for s in samples if s[2]]
    ends = np.array([s[0] for s in good])
    latencies_ms = np.array([s[1] for s in good]) * 1e3
    window_of = np.clip(np.searchsorted(edges, ends, side="right") - 1, 0, SUB_WINDOWS - 1)
    mark_window = np.clip(np.searchsorted(edges, [m[0] for m in marks], side="right") - 1,
                          0, SUB_WINDOWS - 1)
    overall = calibrate.speed(marks)
    speeds, qps, raw_qps, cpu_ms = [], [], [], []
    for w in range(SUB_WINDOWS):
        mine = [m for m, at in zip(marks, mark_window) if at == w]
        speeds.append(calibrate.speed(mine) if mine else overall)
        completed = int((window_of == w).sum())
        length = edges[w + 1] - edges[w]
        busy = length - sum(m[1] for m in mine) / callers
        raw_qps.append(completed / length)
        qps.append(completed / busy / speeds[w])
        cpu_s = cpu_marks[w + 1] - cpu_marks[w] - (sum(m[2] for m in mine) if own_process else 0)
        cpu_ms.append(cpu_s * 1e3 / max(1, completed) * speeds[w])
    at_reference = latencies_ms * np.array(speeds)[window_of]

    result.attempted += len(samples)
    result.failed += len(samples) - len(good)
    result.metrics.update({
        "qps": (float(np.median(qps)), "ops/s"),
        "p50_ms": (float(np.percentile(at_reference, 50)), "ms"),
        "p90_ms": (float(np.percentile(at_reference, 90)), "ms"),
        "cpu_ms_per_op": (float(np.median(cpu_ms)), "ms"),
    })
    result.notes.update({
        "latency_samples": len(good),
        "machine_speed_per_window": [round(float(v), 3) for v in speeds],
        "raw_qps_per_window": [round(float(v), 2) for v in raw_qps],
        "raw_p50_ms": round(float(np.percentile(latencies_ms, 50)), 4),
        "raw_p90_ms": round(float(np.percentile(latencies_ms, 90)), 4),
    })


def timed_setup(times: list, setup, *args):
    """Run ``setup``; append its ``(raw, at reference machine speed)`` seconds to ``times``."""
    value, elapsed, speed = calibrate.bracket(setup, *args)
    times.append((elapsed, elapsed * speed))
    return value


def report_setup(result: Result, times: list) -> None:
    result.metrics["setup_s"] = (statistics.median(t[1] for t in times), "s")
    result.notes["raw_setup_s"] = [round(t[0], 4) for t in times]


# -- library workloads ------------------------------------------------------


def setup_library(seed: int, rows: int, kinds):
    """Generate the inputs, build the table and its indexes."""
    inputs = data.Inputs(seed, rows)
    return inputs, target.make_database(target.make_table(inputs.columns), kinds)


def run_library(workload: str, seed: int, seconds: float, rows: int) -> Result:
    kinds, using = LIBRARY[workload]
    result = Result(workload)
    setups: list = []
    for _ in range(SETUP_REPEATS):
        inputs, db = timed_setup(setups, setup_library, seed, rows, kinds)
    report_setup(result, setups)

    ops = inputs.range_ops
    calls = [target.Call(op, using[i % len(using)]) for i, op in enumerate(ops)]
    samples = []     # (end, latency, ok) inside the measured window
    kept = []        # (position, fingerprint) of the sampled answers
    calibrator = calibrate.Calibrator(LIBRARY_CALIBRATE_EVERY_S)
    edges = time.perf_counter() + WARMUP_S + np.linspace(0.0, seconds, SUB_WINDOWS + 1)
    cpu_marks = []   # process CPU seconds when each edge was crossed
    position = 0
    while True:
        start = time.perf_counter()
        if start >= edges[len(cpu_marks)]:
            if not cpu_marks:
                result.metrics["peak_rss_mb"] = (loadgen.peak_rss_mb(), "MB")
            cpu_marks.append(time.process_time())
            if len(cpu_marks) > SUB_WINDOWS:
                break
        try:
            report = calls[position % len(calls)].on_database(db)
            ok = True
        except Exception:  # noqa: BLE001 - a failed op is a counted result
            report, ok = None, False
        end = time.perf_counter()
        if cpu_marks:
            samples.append((end, end - start, ok))
            if ok and loadgen.sampled(position):
                op = ops[position % len(ops)]
                kept.append((position, oracle.fingerprint(oracle.from_reports(op, report))))
        position += 1
        calibrator.tick(end - start)

    marks = [m for m in calibrator.marks if m[0] >= edges[0]]
    window_metrics(result, samples, edges, cpu_marks, marks, callers=1, own_process=True)
    for position, got in kept:
        want = oracle.fingerprint(oracle.expected(inputs.columns, ops[position % len(ops)]))
        result.failed += got != want
    result.notes["verified"] = len(kept)
    result.notes["peak_rss_at_end_mb"] = round(loadgen.peak_rss_mb(), 2)
    result.metrics["index_bytes_per_row"] = (target.index_bytes(db) / rows, "bytes")
    return result


# -- served workloads -------------------------------------------------------


def setup_served(stack: ExitStack, seed: int, rows: int, scratch: Path):
    """Generate, build, save 4 shards, start the child, wait for /healthz to answer 200.

    The temp directory and the child are registered on ``stack``: closing
    it stops and reaps the child, then removes the directory.
    """
    inputs = data.Inputs(seed, rows)
    scratch.mkdir(parents=True, exist_ok=True)
    directory = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=scratch)))
    with target.make_sharded(target.make_table(inputs.columns)) as db:
        target.save_sharded(db, directory)
    port, pid = stack.enter_context(loadgen.serving(directory))
    return inputs, directory, port, pid


def verify_reads(result: Result, reads, ops, columns_of) -> int:
    """Check every sampled read against the table of the epoch it names.

    Mismatches count in ``result.failed``; returns how many were checked.
    """
    verified = 0
    for sample in reads:
        if sample.body is None or not sample.ok:
            continue
        op = ops[sample.position % len(ops)]
        try:
            payload = json.loads(sample.body)
            good = oracle.agree(oracle.from_payload(op, payload),
                                oracle.expected(columns_of(payload["epoch"]), op))
        except (ValueError, KeyError, TypeError):
            good = False
        verified += 1
        result.failed += not good
    return verified


def run_served(workload: str, seed: int, seconds: float, rows: int, scratch: Path) -> Result:
    readers = SERVED[workload]
    writing = workload == "served_read_write"
    result = Result(workload)
    setups: list = []
    for _ in range(SETUP_REPEATS - 1):
        with ExitStack() as stack:
            timed_setup(setups, setup_served, stack, seed, rows, scratch)
    with ExitStack() as stack:
        inputs, directory, port, pid = timed_setup(
            setups, setup_served, stack, seed, rows, scratch)
        report_setup(result, setups)
        first_epoch, generation_dir = committed_generation(directory)
        result.metrics["index_bytes_per_row"] = (
            directory_bytes(generation_dir) / rows, "bytes")

        ops = inputs.served_ops
        requests = loadgen.encode(ops)
        reads: list[loadgen.Sample] = []
        writes: list[loadgen.Sample] = []
        counter = loadgen.new_counter()
        begin = time.perf_counter()
        edges = begin + WARMUP_S + np.linspace(0.0, seconds, SUB_WINDOWS + 1)
        until = edges[-1]
        calibrators = [calibrate.Calibrator(SERVED_CALIBRATE_EVERY_S) for _ in range(readers)]
        threads = [(loadgen.read_loop, (port, requests, counter,
                                        lambda _: time.perf_counter() < until, reads, calibrator))
                   for calibrator in calibrators]
        write_ops = []
        if writing:
            write_ops = inputs.write_ops(
                data.write_schedule(int((WARMUP_S + seconds) / WRITE_PERIOD_S) + 1))
            threads.append((loadgen.write_loop, (
                port, loadgen.encode(write_ops), begin + WRITE_PERIOD_S / 2,
                WRITE_PERIOD_S, until, writes)))
        cpu_marks = []   # the child's CPU seconds at each edge

        def mark_child():
            for edge in edges:
                time.sleep(max(0.0, edge - time.perf_counter()))
                if not cpu_marks:
                    result.metrics["peak_rss_mb"] = (loadgen.peak_rss_mb(pid), "MB")
                cpu_marks.append(loadgen.cpu_seconds(pid))

        threads.append((mark_child, ()))
        loadgen.run_threads(threads)
        result.notes["peak_rss_at_end_mb"] = round(loadgen.peak_rss_mb(pid), 2)

    measured = [s for s in reads if s.end >= edges[0]]
    marks = [m for c in calibrators for m in c.marks if m[0] >= edges[0]]
    window_metrics(result, [(s.end, s.end - s.start, s.ok) for s in measured],
                   edges, cpu_marks, marks, callers=readers, own_process=False)
    result.notes["response_kb"] = round(
        statistics.fmean(s.size for s in measured) / 1024, 2)

    mirror = oracle.Mirror(inputs.columns, first_epoch)
    for sample in writes:
        result.attempted += 1
        try:
            if not sample.ok:
                raise ValueError("write refused")
            mirror.apply(write_ops[sample.position], json.loads(sample.body)["epoch"])
        except (ValueError, KeyError, TypeError):
            result.failed += 1
    if writes:
        result.notes["write_p50_ms"] = round(
            statistics.median(s.end - s.start for s in writes) * 1e3, 2)
        result.notes["write_late_max_ms"] = round(max(s.late for s in writes) * 1e3, 2)
        result.notes["writes"] = len(writes)
    result.notes["verified"] = verify_reads(result, measured, ops, mirror.columns)
    return result


def run(workload: str, seed: int, seconds: float, rows: int, scratch: Path) -> Result:
    if workload in LIBRARY:
        return run_library(workload, seed, seconds, rows)
    return run_served(workload, seed, seconds, rows, scratch)
