"""The repo's benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                         [--quick] [--out FILE]

Without ``--workload`` all four run; without ``--trace`` each runs both
untraced (the end-to-end metrics) and traced (the per-layer metrics and
``bench/out/trace-<workload>.jsonl``).  Inputs come from the seed alone,
every sampled answer is checked against the benchmark's own oracle, and
the exit code is non-zero on any mismatch or failed operation.

After each run one JSON object is printed on a line of its own —
``{"correct", "attempted", "failed", "metrics"}`` — so the last line of
the output is the result of the last run (``BENCHMARK.json`` describes the
contract).  ``bench/README.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SOURCE = BENCH.parent / "src"
OUT = BENCH / "out"
DEFAULT_SECONDS = 15
TRACE_OPS = 512
QUICK_SECONDS = 5
QUICK_TRACE_OPS = 64


def describe(result, traced: bool) -> dict:
    """Print one run's metrics by name and unit; return its JSON result."""
    print(f"== {result.workload} ({'traced' if traced else 'untraced'}) ==")
    width = max(len(name) for name in result.metrics)
    for name, (value, unit) in result.metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print(f"{'error_rate':<{width}}  {result.failed / max(1, result.attempted):>14.6g}  fraction"
          f"  ({result.failed} of {result.attempted})")
    for name, value in result.notes.items():
        print(f"  note {name}: {value}")
    summary = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }
    print(json.dumps(summary), flush=True)
    return summary


def main(argv: list[str]) -> int:
    if not (SOURCE / "repro").is_dir():
        print(f"bench: no program to measure: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    import data
    import layers
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window of an untraced run (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced run only; 1: traced run only (default: both)")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s windows and {QUICK_TRACE_OPS} traced ops")
    parser.add_argument("--out", type=Path, help="also write every run's result to this JSON file")
    args = parser.parse_args(argv)

    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    trace_ops = QUICK_TRACE_OPS if args.quick else TRACE_OPS
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]

    results = []
    for name in names:
        for traced in modes:
            if traced:
                result = layers.run(name, args.seed, data.ROWS, OUT, trace_ops,
                                    OUT / f"trace-{name}.jsonl")
            else:
                result = workloads.run(name, args.seed, seconds, data.ROWS, OUT)
            results.append({"workload": name, "traced": traced, "seed": args.seed,
                            **describe(result, traced)})
    if args.out:
        args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
