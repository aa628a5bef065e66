"""The benchmark's own span recorder.

Spans are recorded from the benchmark's side of each layer boundary —
around the call into a tier — never from inside the program.  One span
per call: ``name`` (the tier), ``op_id`` (shared by every tier's span for
the same operation), ``parent`` (the tier that wraps this one), and
monotonic ``start_ns`` / ``end_ns``.  Spans stay in memory until
:meth:`Tracer.write` puts them in a JSON-lines file.

Tiers are replayed one after another on the same ops rather than nested
in one call, so a tier's *self time* for an op is its span's duration
minus the duration of the span that names it as ``parent`` for the same
``op_id`` (:meth:`Tracer.self_ns`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, op_id: int, parent: str | None = None):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.spans.append({"name": name, "op_id": op_id, "parent": parent,
                               "start_ns": start, "end_ns": end})

    def durations(self, name: str) -> dict[int, int]:
        """``{op_id: duration_ns}`` of every span called ``name``."""
        return {s["op_id"]: s["end_ns"] - s["start_ns"]
                for s in self.spans if s["name"] == name}

    def self_ns(self, name: str) -> dict[int, int]:
        """Per-op self time of tier ``name``: its span minus its child's.

        The child is the tier whose spans name ``name`` as ``parent``; ops
        the child did not run (it has no form of them) are left out.
        """
        own = self.durations(name)
        child = {s["op_id"]: s["end_ns"] - s["start_ns"]
                 for s in self.spans if s["parent"] == name}
        return {op_id: own[op_id] - ns for op_id, ns in child.items() if op_id in own}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
