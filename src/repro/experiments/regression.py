"""Bench regression tracking: compare a run against a committed trajectory.

``python -m repro.experiments bench --against BENCH_<area>.json`` re-runs
the suite a committed file records and fails (exit non-zero) when any
*guarded metric* regresses beyond the tolerance.  Guarded metrics are
chosen to be machine-portable, so a laptop-written baseline still guards a
CI runner:

* **ratios within one run** — ``speedup_vs_python`` (micro_ops),
  ``speedup`` / ``cache_hit_rate`` (batch_hit_rate), ``speedup`` /
  ``pruned_frac`` / ``identical`` (sharded_scaling), ``bre_over_va``
  (fig5_latency: BRE milliseconds over the VA-file's on the same queries,
  lower is better — the ordering the paper's Fig. 5 is about) and
  ``planner_over_best`` (fig5_latency: the planner's picks over the
  fastest technique, lower is better — 1.0 is a planner that always
  picks right);
* **deterministic cost-model counts** — the ``*_words`` / ``*_bitmaps``
  columns of ``fig5_latency``, which depend only on the seeded dataset
  and the algorithms, never the hardware.

Raw wall-clock columns (``*_ms``, ``median_ms``) and latency skew are
deliberately *not* guarded — they move with the machine.  A metric present
in the baseline but absent from the current run is itself a failure, so a
suite cannot silently drop coverage.
"""

from __future__ import annotations

import json

__all__ = [
    "GuardedMetricError",
    "compare_payloads",
    "guarded_metrics",
    "load_baseline",
]


class GuardedMetricError(ValueError):
    """A baseline file cannot be compared (wrong schema/area/shape)."""


#: Column-name rules: (predicate, higher_is_better).  First match wins;
#: columns matching no rule are unguarded (machine-dependent timings).
_HIGHER_IS_BETTER = ("speedup", "hit_rate", "pruned_frac", "identical")
_LOWER_IS_BETTER_SUFFIXES = ("_words", "_bitmaps", "_over_va", "_over_best")


def _direction(column: str) -> bool | None:
    """True = higher is better, False = lower is better, None = unguarded."""
    if any(tag in column for tag in _HIGHER_IS_BETTER):
        return True
    if column.endswith(_LOWER_IS_BETTER_SUFFIXES):
        return False
    return None


def _row_metrics(area: str, results: dict) -> dict[str, tuple[float, bool]]:
    """Guarded metrics of an ExperimentResult-shaped payload."""
    metrics: dict[str, tuple[float, bool]] = {}
    columns = results.get("columns", [])
    for row in results.get("rows", []):
        x, values = row[0], row[1:]
        for column, value in zip(columns, values):
            higher = _direction(column)
            if higher is None or not isinstance(value, (int, float, bool)):
                continue
            metrics[f"{area}[x={x}].{column}"] = (float(value), higher)
    return metrics


def guarded_metrics(area: str, results: dict) -> dict[str, tuple[float, bool]]:
    """Extract ``{metric_name: (value, higher_is_better)}`` for one suite.

    ``results`` is the ``"results"`` object of a ``BENCH_<area>.json``
    payload (the dict the suite function returned).
    """
    if area == "micro_ops":
        metrics: dict[str, tuple[float, bool]] = {}
        for backend, cases in results.get("speedup_vs_python", {}).items():
            for case, speedup in cases.items():
                if isinstance(speedup, (int, float)):
                    metrics[f"micro_ops.speedup.{backend}.{case}"] = (
                        float(speedup), True,
                    )
        return metrics
    return _row_metrics(area, results)


def load_baseline(path: str, expected_schema: int) -> dict:
    """Load and validate one committed ``BENCH_<area>.json`` file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise GuardedMetricError(f"cannot read baseline {path!r}: {exc}")
    schema = payload.get("schema")
    if schema != expected_schema:
        raise GuardedMetricError(
            f"baseline {path!r} has schema {schema!r}; this build compares "
            f"schema {expected_schema}"
        )
    if "area" not in payload or "results" not in payload:
        raise GuardedMetricError(
            f"baseline {path!r} is missing 'area'/'results' keys"
        )
    return payload


def compare_payloads(
    baseline: dict,
    current_results: dict,
    tolerance: float,
    source: str = "<baseline>",
) -> list[str]:
    """Regression failures of a fresh run against one baseline payload.

    ``tolerance`` is the fractional slack: a higher-is-better metric fails
    when ``current < baseline * (1 - tolerance)``, a lower-is-better metric
    when ``current > baseline * (1 + tolerance)``.  Returns human-readable
    failure strings (empty = no regression).
    """
    if not 0 <= tolerance:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    area = baseline["area"]
    base = guarded_metrics(area, baseline["results"])
    current = guarded_metrics(area, current_results)
    failures: list[str] = []
    for name, (base_value, higher) in sorted(base.items()):
        if name not in current:
            failures.append(
                f"{area}: guarded metric {name} is in {source} but missing "
                f"from the current run"
            )
            continue
        value, _ = current[name]
        if higher:
            floor = base_value * (1 - tolerance)
            if value < floor:
                failures.append(
                    f"{area}: {name} regressed: {value:g} < {base_value:g} "
                    f"- {tolerance:.0%} (floor {floor:g}) [{source}]"
                )
        else:
            ceiling = base_value * (1 + tolerance)
            if value > ceiling:
                failures.append(
                    f"{area}: {name} regressed: {value:g} > {base_value:g} "
                    f"+ {tolerance:.0%} (ceiling {ceiling:g}) [{source}]"
                )
    return failures
