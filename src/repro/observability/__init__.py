"""Query-path observability: metrics registry, per-query traces, exporters.

The paper's evaluation argues from operation-level accounting — words
scanned by WAH ops, bitvectors touched per query dimension, VA-file
candidates vs. records refined — and this package makes those quantities
first-class at runtime:

* :mod:`repro.observability.metrics` — a process-wide but swappable
  :class:`MetricsRegistry` (counters, gauges, ns histograms) whose default
  is a no-op :class:`NullRegistry`, so instrumentation can stay on in hot
  loops;
* :mod:`repro.observability.trace` — opt-in :class:`QueryTrace` span trees
  populated by ``IncompleteDatabase.execute(query, trace=True)`` and
  rendered by ``explain(..., analyze=True)``;
* :mod:`repro.observability.export` — text table, JSON lines, and
  Prometheus renderings of any registry snapshot;
* :mod:`repro.observability.workload` — an always-on
  :class:`WorkloadRecorder` keeping one normalized record per executed
  query (bounded ring + rotating JSONL sink + advisor-shaped summary),
  no-op by default like the registry;
* :mod:`repro.observability.slowlog` — a :class:`SlowQueryLog` retaining
  the N worst threshold-crossing queries with their span trees;
* :mod:`repro.observability.server` — the repo's one HTTP loop, and the
  telemetry endpoint on it serving ``/metrics`` (Prometheus),
  ``/healthz``, ``/varz``, and ``/workload``.

The metric names and span naming scheme are documented in
``docs/observability.md``; ``docs/cost-model.md`` maps each cost-model term
to the counter that measures it.
"""

from repro.observability.export import (
    render_jsonl,
    render_prometheus,
    render_table,
)
from repro.observability.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
    enabled,
    get_registry,
    observe,
    record,
    set_registry,
    suppressed,
    use_registry,
)
from repro.observability.server import (
    TelemetryServer,
    start_telemetry_server,
)
from repro.observability.slowlog import SlowQueryEntry, SlowQueryLog
from repro.observability.trace import (
    QueryTrace,
    Span,
    activate,
    current_span,
    current_trace,
    trace_span,
)
from repro.observability.workload import (
    NULL_RECORDER,
    NullWorkloadRecorder,
    RotatingJsonlSink,
    WorkloadRecord,
    WorkloadRecorder,
    get_recorder,
    set_recorder,
    use_recorder,
    workload_summary,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "NullWorkloadRecorder",
    "NULL_RECORDER",
    "NULL_REGISTRY",
    "QueryTrace",
    "RotatingJsonlSink",
    "SlowQueryEntry",
    "SlowQueryLog",
    "Span",
    "TelemetryServer",
    "WorkloadRecord",
    "WorkloadRecorder",
    "activate",
    "current_span",
    "current_trace",
    "enabled",
    "get_recorder",
    "get_registry",
    "observe",
    "record",
    "render_jsonl",
    "render_prometheus",
    "render_table",
    "set_recorder",
    "set_registry",
    "start_telemetry_server",
    "suppressed",
    "trace_span",
    "use_recorder",
    "use_registry",
    "workload_summary",
]
