"""``python -m repro.experiments serve`` — run the query service.

Boots a :class:`~repro.serve.QueryService` over either a saved sharded
directory (writes persist new generation directories there) or a fresh
synthetic demo dataset (memory-only snapshots), installs a real metrics
registry and workload recorder, and serves until interrupted (or for
``--duration`` seconds)::

    python -m repro.experiments serve --directory /data/db --port 9096
    python -m repro.experiments serve --records 50000   # demo dataset

    curl localhost:9096/healthz
    curl -d '{"bounds": {"a": [3, 9]}}' localhost:9096/query
    curl -d '{"rows": {"a": [1, 2], "b": [3, 4]}}' localhost:9096/append
    curl localhost:9096/epochs

See ``docs/serving.md`` for the full endpoint reference, the epoch
lifecycle, and the admission-control semantics behind ``--max-inflight``
/ ``--queue-limit`` / ``--deadline-ms``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import observability as obs

#: Demo schema, shared with ``serve-metrics``.
_SCHEMA = {"a": 100, "b": 50, "c": 20}
_MISSING = {"a": 0.1, "b": 0.2, "c": 0.3}


def _demo_database(num_records: int, num_shards: int, seed: int):
    from repro.dataset.synthetic import generate_uniform_table
    from repro.shard import ShardedDatabase

    table = generate_uniform_table(num_records, _SCHEMA, _MISSING, seed=seed)
    db = ShardedDatabase(table, num_shards=num_shards)
    db.create_index("bre", "bre")
    return db


def serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description="Serve JSON queries over epoch-pinned snapshots.",
    )
    parser.add_argument(
        "--directory", metavar="DIR",
        help="saved sharded database to serve (default: synthetic demo "
             "data, memory-only)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=9096,
        help="bind port; 0 picks a free one (default: 9096)",
    )
    parser.add_argument(
        "--records", type=int, default=30_000,
        help="demo dataset size when no --directory (default: 30000)",
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="demo dataset shard count (default: 4)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=1,
        help="concurrently executing reads (default: 1)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=16,
        help="requests allowed to wait for a slot before 429s (default: 16)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request deadline (default: none)",
    )
    parser.add_argument(
        "--duration", type=float, default=0.0,
        help="stop after this many seconds (default: 0 = run until Ctrl-C)",
    )
    parser.add_argument("--seed", type=int, default=2006)
    args = parser.parse_args(argv)

    from repro.serve import QueryService

    obs.set_registry(obs.MetricsRegistry())
    obs.set_recorder(obs.WorkloadRecorder())

    if args.directory:
        service = QueryService(
            directory=args.directory,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            default_deadline_ms=args.deadline_ms,
        )
        source = args.directory
    else:
        print(f"building demo database ({args.records} records)...")
        db = _demo_database(args.records, args.shards, args.seed)
        service = QueryService(
            database=db,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            default_deadline_ms=args.deadline_ms,
        )
        source = f"demo ({args.records} records, memory-only snapshots)"

    service.start()
    print(f"query service up at {service.url} over {source}")
    print(f"  epoch {service.epochs.current_epoch}; routes:")
    for route in ("/healthz", "/epochs", "/metrics", "/query", "/count",
                  "/batch", "/boolean", "/explain", "/append", "/delete",
                  "/compact", "/create-index", "/drop-index"):
        print(f"  {service.url}{route}")
    try:
        if args.duration > 0:
            time.sleep(args.duration)
            print(f"--duration {args.duration}s elapsed; draining")
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        print("\ninterrupted; draining")
    finally:
        service.stop()
    stats = service.epochs.stats()
    print(
        f"served through epoch {stats.current_epoch}: "
        f"{stats.published} published, {stats.gcs} garbage-collected"
    )
    return 0


if __name__ == "__main__":
    sys.exit(serve_main(sys.argv[1:]))
