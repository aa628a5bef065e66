"""The server under test, in a process of its own.

``python server_child.py DIRECTORY`` boots ``QueryService`` over a saved
sharded directory with a real metrics registry and workload recorder
installed — exactly what ``python -m repro.experiments serve`` does —
prints ``{"port": N}`` on one line once it is listening, and serves until
its stdin reaches end-of-file (the parent closing the pipe, or dying).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: server_child.py DIRECTORY", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro import observability as obs
    from repro.serve import QueryService

    obs.set_registry(obs.MetricsRegistry())
    obs.set_recorder(obs.WorkloadRecorder())
    service = QueryService(directory=argv[0], port=0)
    service.start()
    try:
        print(json.dumps({"port": service.port}), flush=True)
        sys.stdin.read()
    finally:
        service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
