"""Benchmark suites with machine-readable output (``BENCH_<area>.json``).

``python -m repro.experiments bench`` runs the performance suites this repo
tracks across PRs and writes one JSON file per suite, so any change can
prove its speedup (or be caught regressing) by diffing committed numbers:

* ``micro_ops`` — the WAH kernel micro-benchmarks from
  ``benchmarks/test_micro_ops.py`` (sparse/dense AND/OR, compress), run
  once per registered kernel backend with per-case medians and speedups
  versus the ``python`` reference backend.
* ``fig5_latency`` — the Figure 5(a) query-latency sweep.
* ``batch_hit_rate`` — the batch executor + sub-result cache experiment.
* ``sharded_scaling`` — the sharded scatter-gather scaling sweep.

Every file records the schema version, the git commit, interpreter/numpy
versions, the active kernel backend, and the suite's results; see
``docs/kernels.md`` for the format and CI wiring.

``--against BENCH_<area>.json`` turns a run into a regression gate: the
named suite re-runs and its machine-portable guarded metrics (speedups,
hit rates, deterministic cost-model counts — see
:mod:`repro.experiments.regression`) are compared to the committed file,
exiting non-zero on any drop beyond ``--tolerance``.  This is how the
committed ``BENCH_*.json`` files stay a guarded perf history instead of
dead artifacts (see ``docs/observability.md``, "Bench regression
tracking").
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable

import numpy as np

from repro.bitvector import kernels
from repro.bitvector.wah import WahBitVector

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

_SCALES = {
    "ci": {"records": 30_000, "queries": 50, "sharded": 150_000,
           "micro_repeats": 15},
    "paper": {"records": 100_000, "queries": 100, "sharded": 300_000,
              "micro_repeats": 50},
}

#: Micro-op operand shapes, mirroring ``benchmarks/test_micro_ops.py``:
#: 100k bits, seed 1 at 1% density (sparse), seed 2 at 50% density (dense).
_MICRO_NBITS = 100_000
_MICRO_SEEDS = {"sparse": (1, 0.01), "dense": (2, 0.5)}


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _median_ms(
    setup: Callable[[], tuple], fn: Callable[..., object], repeats: int
) -> float:
    """Median ms of ``fn(*setup())``, with ``setup`` outside the timing."""
    times = []
    for _ in range(repeats):
        args = setup()
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _cold(vec: WahBitVector) -> WahBitVector:
    """A copy of a stored vector that has not decoded its stream yet."""
    return WahBitVector._from_words(vec.nbits, vec.words)


def _micro_pair(kind: str) -> tuple[WahBitVector, WahBitVector, np.ndarray]:
    seed, density = _MICRO_SEEDS[kind]
    rng = np.random.default_rng(seed)
    a = rng.random(_MICRO_NBITS) < density
    b = rng.random(_MICRO_NBITS) < density
    return WahBitVector.from_bools(a), WahBitVector.from_bools(b), a


def bench_micro_ops(repeats: int) -> dict:
    """Per-backend medians for the WAH kernel micro-operations.

    A stored vector keeps its group array after its first decode, so each
    timed op gets a cold pair, made outside the timed region: the cases
    time decode + op per backend, not a warm ufunc.
    """
    wa_s, wb_s, _ = _micro_pair("sparse")
    wa_d, wb_d, bools_d = _micro_pair("dense")

    def sparse() -> tuple:
        return _cold(wa_s), _cold(wb_s)

    def dense() -> tuple:
        return _cold(wa_d), _cold(wb_d)

    cases: dict[str, tuple[Callable[[], tuple], Callable[..., object]]] = {
        "wah_and_sparse": (sparse, operator.and_),
        "wah_or_sparse": (sparse, operator.or_),
        "wah_and_dense": (dense, operator.and_),
        "wah_or_dense": (dense, operator.or_),
        "wah_compress_dense": (lambda: (bools_d,), WahBitVector.from_bools),
    }
    backends: dict[str, dict[str, float]] = {}
    for backend in kernels.available_backends():
        with kernels.use_backend(backend):
            for setup, fn in cases.values():  # warm-up
                fn(*setup())
            backends[backend] = {
                name: round(_median_ms(setup, fn, repeats), 6)
                for name, (setup, fn) in cases.items()
            }
    reference = backends.get("python", {})
    speedups = {
        backend: {
            name: round(reference[name] / med, 2) if med else None
            for name, med in medians.items()
            if name in reference
        }
        for backend, medians in backends.items()
        if backend != "python"
    }
    return {
        "nbits": _MICRO_NBITS,
        "repeats": repeats,
        "median_ms": backends,
        "speedup_vs_python": speedups,
    }


def _result_as_dict(result) -> dict:
    """Generic JSON form of an :class:`ExperimentResult`."""
    return {
        "title": result.title,
        "x_label": result.x_label,
        "columns": result.columns,
        "rows": [list(row) for row in result.rows],
        "notes": list(result.notes),
    }


def bench_fig5_latency(scale: dict) -> dict:
    from repro.experiments.fig5 import run_fig5a

    result = run_fig5a(
        num_records=scale["records"], num_queries=scale["queries"]
    )
    return _result_as_dict(result)


def bench_batch_hit_rate(scale: dict) -> dict:
    from repro.experiments.fig4 import run_fig4_batch

    result = run_fig4_batch(
        num_records=scale["records"], num_queries=scale["queries"] * 2
    )
    return _result_as_dict(result)


def bench_sharded_scaling(scale: dict) -> dict:
    from repro.experiments.fig4_sharded import run_fig4_sharded

    result = run_fig4_sharded(
        num_records=scale["sharded"], num_queries=scale["queries"]
    )
    return _result_as_dict(result)


def bench_semantics(scale: dict) -> dict:
    from repro.experiments.fig_semantics import run_fig_semantics

    result = run_fig_semantics(
        num_records=scale["records"], num_queries=scale["queries"]
    )
    return _result_as_dict(result)


_SUITES: dict[str, Callable[[dict, int], dict]] = {
    "micro_ops": lambda scale, repeats: bench_micro_ops(repeats),
    "fig5_latency": lambda scale, repeats: bench_fig5_latency(scale),
    "batch_hit_rate": lambda scale, repeats: bench_batch_hit_rate(scale),
    "sharded_scaling": lambda scale, repeats: bench_sharded_scaling(scale),
    "semantics": lambda scale, repeats: bench_semantics(scale),
}


def _write_suite(area: str, results: dict, scale_name: str, out_dir: str) -> str:
    payload = {
        "schema": SCHEMA_VERSION,
        "area": area,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": kernels.get_backend().name,
        "backends_available": list(kernels.available_backends()),
        "scale": scale_name,
        "results": results,
    }
    path = os.path.join(out_dir, f"BENCH_{area}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def _check_micro(results: dict) -> list[str]:
    """Regression guard: the numpy backend must beat the python reference."""
    failures = []
    medians = results["median_ms"]
    if "numpy" not in medians or "python" not in medians:
        return ["micro_ops: need both numpy and python backends to --check"]
    for case, ref in medians["python"].items():
        med = medians["numpy"].get(case)
        if med is not None and med > ref:
            failures.append(
                f"micro_ops: numpy {case} ({med:.3f} ms) slower than "
                f"python reference ({ref:.3f} ms)"
            )
    return failures


def bench_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments bench",
        description="Run benchmark suites and write BENCH_<area>.json files.",
    )
    parser.add_argument(
        "suites", nargs="*", metavar="SUITE",
        help=f"suites to run (default: all of {sorted(_SUITES)})",
    )
    parser.add_argument(
        "--scale", choices=sorted(_SCALES), default="ci",
        help="dataset scale for the experiment-level suites (default: ci)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, metavar="N",
        help="micro-op timing repeats (default: scale-dependent)",
    )
    parser.add_argument(
        "--output-dir", default=".", metavar="DIR",
        help="directory receiving the BENCH_*.json files (default: .)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero if the numpy backend is slower than the "
             "python reference on any micro-op case",
    )
    parser.add_argument(
        "--against", action="append", default=[], metavar="BENCH_FILE",
        help="committed BENCH_<area>.json to compare this run against; "
             "repeatable.  Exits non-zero if any guarded metric regresses "
             "beyond --tolerance.  With no explicit suites, only the "
             "baselines' areas run.",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRAC",
        help="fractional slack for --against comparisons (default: 0.25, "
             "i.e. a guarded metric may drop 25%% before failing)",
    )
    args = parser.parse_args(argv)

    from repro.experiments.regression import (
        GuardedMetricError,
        compare_payloads,
        load_baseline,
    )

    baselines: dict[str, list[tuple[str, dict]]] = {}
    for path in args.against:
        try:
            payload = load_baseline(path, SCHEMA_VERSION)
        except GuardedMetricError as exc:
            parser.error(str(exc))
        area = payload["area"]
        if area not in _SUITES:
            parser.error(
                f"baseline {path!r} guards unknown area {area!r}; "
                f"known areas: {sorted(_SUITES)}"
            )
        baselines.setdefault(area, []).append((path, payload))

    if args.suites:
        selected = args.suites
    elif baselines:
        selected = sorted(baselines)
    else:
        selected = sorted(_SUITES)
    unknown = [name for name in selected if name not in _SUITES]
    if unknown:
        parser.error(f"unknown suites {unknown}; choose from {sorted(_SUITES)}")
    if args.check and "micro_ops" not in selected:
        parser.error("--check requires the micro_ops suite")
    missing = [area for area in baselines if area not in selected]
    if missing:
        parser.error(
            f"--against baselines for {missing} need their suites selected"
        )
    scale = _SCALES[args.scale]
    repeats = args.repeats if args.repeats is not None else scale["micro_repeats"]
    os.makedirs(args.output_dir, exist_ok=True)

    failures: list[str] = []
    for area in selected:
        start = time.perf_counter()
        results = _SUITES[area](scale, repeats)
        elapsed = time.perf_counter() - start
        path = _write_suite(area, results, args.scale, args.output_dir)
        print(f"[{area} completed in {elapsed:.1f}s -> {path}]")
        if area == "micro_ops":
            for backend, cases in results["speedup_vs_python"].items():
                line = ", ".join(
                    f"{case} {mult}x" for case, mult in cases.items()
                )
                print(f"  {backend} vs python: {line}")
            if args.check:
                failures.extend(_check_micro(results))
        for base_path, base_payload in baselines.get(area, []):
            area_failures = compare_payloads(
                base_payload, results, args.tolerance, source=base_path
            )
            failures.extend(area_failures)
            verdict = (
                f"{len(area_failures)} regression(s)"
                if area_failures
                else "no regressions"
            )
            print(
                f"  --against {base_path}: {verdict} "
                f"(tolerance {args.tolerance:.0%})"
            )
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0
