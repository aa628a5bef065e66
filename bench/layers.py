"""The traced run: where one workload's time goes, layer by layer.

The first ``trace_ops`` operations of the workload are replayed once,
single-threaded, at every nesting tier —

    index.execute_ids -> db.execute -> ShardedDatabase (1 shard)
                      -> ShardedDatabase (4 shards, loaded) -> HTTP, 1 connection

— with one span per call (:mod:`trace`) and every answer checked against
the oracle.  A tier's self time is its span minus the span of the tier it
wraps, for the same op.  Exact work counts come from a second pass under a
scoped metrics registry, so the timed pass pays no telemetry.  Around the
replay sit small fixed probes (bitvector operand pairs, per-index query
time, planner, batch cache, writes) that give each layer its own numbers.

Every tier is built for the workload's own indexes, so a library
workload's ops (which name their index with ``using``) run unchanged
through the sharded and HTTP tiers too.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import threading
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

import data
import loadgen
import oracle
import target
import workloads
from trace import Tracer

#: Each tier and the tier that wraps it, innermost first.  The sequential
#: executor is a side branch: same data as ``shard4``, nothing wraps it.
PARENT = {"index": "db", "db": "shard1", "shard1": "shard4", "shard4": "http",
          "http": None, "shard4.sequential": None}
PROBE_OPS = 128          # ops the small fixed probes use
OPERAND_PAIRS = 256
BATCH_GROUPS = 32
HEALTHZ_CALLS = 100
WRITE_GAP_S = 0.4


def _median_ms(nanoseconds) -> float:
    return statistics.median(nanoseconds) / 1e6


def _timed(function, *args) -> tuple[int, object]:
    start = time.perf_counter_ns()
    value = function(*args)
    return time.perf_counter_ns() - start, value


def scrape(connection: loadgen.Connection) -> dict[str, float]:
    """The child's ``/metrics`` as ``{exposition name: value}`` (no quantile rows)."""
    _, text = connection.request("/metrics")
    values = {}
    for line in text.decode("utf-8").splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
    return values


def _delta_mean_ms(before: dict, after: dict, histogram: str) -> float:
    """Mean of a ``*_ns`` histogram over the interval between two scrapes."""
    count = after.get(histogram + "_count", 0) - before.get(histogram + "_count", 0)
    total = after.get(histogram + "_sum", 0) - before.get(histogram + "_sum", 0)
    return total / count / 1e6 if count else 0.0


class TracedRun:
    def __init__(self, workload: str, seed: int, rows: int, trace_ops: int):
        self.workload = workload
        self.result = workloads.Result(workload)
        self.metrics = self.result.metrics
        self.tracer = Tracer()
        self.library = workload in workloads.LIBRARY
        if self.library:
            self.kinds, self.using = workloads.LIBRARY[workload]
        else:
            self.kinds, self.using = target.SERVED_INDEXES, (None,)

        elapsed, self.inputs = _timed(data.Inputs, seed, rows)
        self.metrics["dataset.generate_s"] = (elapsed / 1e9, "s")
        self.table = target.make_table(self.inputs.columns)
        self.metrics["dataset.table_mb"] = (self.table.nbytes() / 2**20, "MB")

        seconds: dict = {}
        self.db_all = target.make_database(self.table, ("bre", "bee", "vafile"), seconds)
        self.metrics["bitmap.build_s"] = (seconds["bre"] + seconds["bee"], "s")
        self.metrics["vafile.build_s"] = (seconds["vafile"], "s")
        self.db = target.share_indexes(self.db_all, self.kinds)

        pool = self.inputs.range_ops if self.library else self.inputs.served_ops
        self.ops = []
        for position, op in enumerate(pool[:trace_ops]):
            using = self.using[position % len(self.using)]
            if using is not None:   # the HTTP body has to name the index too
                op = {"route": op["route"], "body": {**op["body"], "using": using}}
            self.ops.append(op)
        self.calls = [target.Call(op, op["body"].get("using")) for op in self.ops]
        self.requests = loadgen.encode(self.ops)
        self.wanted = [oracle.expected(self.inputs.columns, op) for op in self.ops]
        self.probe = min(PROBE_OPS, len(self.ops))

    # -- the replay -----------------------------------------------------------

    def check(self, op_id: int, answer) -> None:
        self.result.attempted += 1
        try:
            self.result.failed += not oracle.agree(answer(), self.wanted[op_id])
        except (KeyError, TypeError, ValueError):
            self.result.failed += 1

    def replay(self, tier: str, run) -> None:
        """One span per op at ``tier``; ``run(op_id)`` returns a thunk giving the answer."""
        for op_id in range(len(self.ops)):
            if tier == "index" and self.calls[op_id].query is None:
                continue    # /boolean and /batch have no single-index form
            with self.tracer.span(tier, op_id, PARENT[tier]):
                answer = run(op_id)
            self.check(op_id, answer)

    def on(self, database):
        """A ``run`` for :meth:`replay` that executes each op on ``database``."""
        def run(op_id):
            reports = self.calls[op_id].on_database(database)
            return lambda: oracle.from_reports(self.ops[op_id], reports)
        return run

    def on_index(self, op_id):
        ids = self.calls[op_id].on_index(self.db)
        return lambda: oracle.from_reports(self.ops[op_id], ids)

    def over_http(self, connection, sizes: list):
        def run(op_id):
            status, body = connection.request(*self.requests[op_id])
            sizes.append(len(body))
            if status != 200:
                return lambda: None
            return lambda: oracle.from_payload(self.ops[op_id], json.loads(body))
        return run

    def durations_ms(self, tier: str) -> np.ndarray:
        return np.array(list(self.tracer.durations(tier).values())) / 1e6

    def self_ms(self, tier: str) -> float:
        return _median_ms(self.tracer.self_ns(tier).values())

    # -- library tiers and their counts ---------------------------------------

    def library_tiers(self) -> None:
        m = self.metrics
        self.replay("index", self.on_index)
        self.replay("db", self.on(self.db))
        db_ms = self.durations_ms("db")
        m["core.execute_ms_per_query"] = (float(np.median(db_ms)), "ms")
        m["core.p99_ms"] = (float(np.percentile(db_ms, 99)), "ms")
        m["core.self_ms"] = (self.self_ms("db"), "ms")

        # Two more passes with nothing between the calls: bare, then under
        # telemetry.  Their ratio is what the telemetry costs (ROADMAP 1d);
        # the registry of the second holds the exact work counts; and the
        # traced pass over the bare one is what recording spans and checking
        # answers between calls costs the workload's top tier (for a served
        # workload that is HTTP: see http_tier).
        bare_ns = [_timed(call.on_database, self.db)[0] for call in self.calls]
        if self.library:
            m["observability.trace_overhead_ratio"] = (
                float(np.median(db_ms)) / _median_ms(bare_ns), "ratio")
        kinds = []
        with target.telemetry() as registry:
            start = time.perf_counter_ns()
            for call in self.calls:
                reports = call.on_database(self.db)
                kinds += [r.kind for r in (reports if isinstance(reports, list) else [reports])]
            counted_ns = time.perf_counter_ns() - start
        counts = target.counters(registry)
        n = len(self.calls)
        m["observability.registry_overhead_ratio"] = (counted_ns / sum(bare_ns), "ratio")
        m["bitvector.ops_per_query"] = (counts.get("wah.ops", 0) / n, "count")
        m["bitvector.words_decoded_per_query"] = (counts.get("wah.words_decoded", 0) / n, "count")
        m["bitvector.words_emitted_per_query"] = (counts.get("wah.words_emitted", 0) / n, "count")
        m["bitmap.bitmaps_per_query"] = (counts.get("bitmap.bitvectors_touched", 0) / n, "count")
        m["bitmap.words_per_query"] = (counts.get("bitmap.words_processed", 0) / n, "count")
        m["vafile.codes_scanned_per_query"] = (counts.get("vafile.codes_scanned", 0) / n, "count")
        results = sum(len(ids) for answer in self.wanted for ids in answer)
        m["vafile.refined_per_result"] = (
            counts.get("vafile.records_refined", 0) / max(1, results), "ratio")
        m["core.plan_vafile_frac"] = (kinds.count("vafile") / len(kinds), "fraction")

    def sharded_tiers(self, directory: Path) -> None:
        m = self.metrics
        with target.make_sharded(self.table, self.kinds, num_shards=1) as shard1:
            self.replay("shard1", self.on(shard1))
        with target.make_sharded(self.table, self.kinds) as built:
            elapsed, _ = _timed(target.save_sharded, built, directory)
        m["storage.save_s"] = (elapsed / 1e9, "s")
        elapsed, shard4 = _timed(target.load_sharded, directory)
        m["storage.load_s"] = (elapsed / 1e9, "s")
        with shard4:
            self.replay("shard4", self.on(shard4))
            with target.telemetry() as registry:
                for call in self.calls[:self.probe]:
                    call.on_database(shard4)
        with target.load_sharded(directory, executor="sequential") as sequential:
            self.replay("shard4.sequential", self.on(sequential))

        db_ms = float(np.median(self.durations_ms("db")))
        for name, tier in (("n1_overhead_ratio", "shard1"), ("n4_overhead_ratio", "shard4"),
                           ("n4_sequential_ratio", "shard4.sequential")):
            m["shard." + name] = (float(np.median(self.durations_ms(tier))) / db_ms, "ratio")
        counts = target.counters(registry)
        tasks, pruned = counts.get("shard.fanout_tasks", 0), counts.get("shard.pruned", 0)
        m["shard.fanout_tasks_per_query"] = (tasks / self.probe, "count")
        m["shard.pruned_frac"] = (pruned / max(1, tasks + pruned), "fraction")
        merges, merge_ns = target.histograms(registry).get("shard.merge_ns", (0, 0))
        m["shard.merge_ms"] = (merge_ns / max(1, merges) / 1e6, "ms")

    # -- fixed probes on the in-process layers ---------------------------------

    def bitvector_probe(self, seed: int) -> None:
        """AND / OR / NOT / to-ids on fixed pairs of stored BRE bitmaps."""
        m = self.metrics
        index = self.db_all.get_index("bre").index
        rng = np.random.default_rng(seed)
        operands = []
        for label, attributes in (("uniform", data.UNIFORM), ("clustered", data.CLUSTERED)):
            wide = [(name, c) for name, c, _ in attributes if c >= 10]
            and_ns, or_ns = [], []
            for _ in range(OPERAND_PAIRS):
                (a, ca), (b, cb) = (wide[i] for i in rng.choice(len(wide), 2, replace=False))
                x = index.bitmap(a, int(rng.integers(1, ca)))
                y = index.bitmap(b, int(rng.integers(1, cb)))
                and_ns.append(_timed(lambda: x & y)[0])
                or_ns.append(_timed(lambda: x | y)[0])
                operands.append(x)
            m[f"bitvector.and_us.{label}"] = (statistics.median(and_ns) / 1e3, "us")
            m[f"bitvector.or_us.{label}"] = (statistics.median(or_ns) / 1e3, "us")
            report = {r.attribute: r for r in index.size_report().per_attribute}
            stored = sum(report[name].compressed_bytes for name, _, _ in attributes)
            verbatim = sum(report[name].verbatim_bytes for name, _, _ in attributes)
            m[f"bitvector.compression_ratio.{label}"] = (stored / verbatim, "ratio")
        m["bitvector.not_us"] = (
            statistics.median(_timed(lambda: ~x)[0] for x in operands) / 1e3, "us")
        m["bitvector.to_ids_us"] = (
            statistics.median(_timed(x.to_indices)[0] for x in operands) / 1e3, "us")

    def index_probes(self) -> None:
        """Per-index query time on the first pool queries, outside any workload's mix."""
        m = self.metrics
        ops = self.inputs.range_ops[:self.probe]
        for kind, name in (("bre", "bitmap.bre_ms_per_query"), ("bee", "bitmap.bee_ms_per_query"),
                           ("vafile", "vafile.ms_per_query")):
            calls = [target.Call(op, kind) for op in ops]
            m[name] = (_median_ms(_timed(c.on_index, self.db_all)[0] for c in calls), "ms")

        by_class = {"uniform": [], "clustered": []}
        for op in ops:      # one single-interval BRE query per interval of each query
            for name, interval in op["body"]["bounds"].items():
                single = {"route": "query", "body": {"bounds": {name: interval},
                                                     "semantics": op["body"]["semantics"]}}
                label = "clustered" if name.startswith("z") else "uniform"
                by_class[label].append(
                    _timed(target.Call(single, "bre").on_index, self.db_all)[0])
        for label, elapsed in by_class.items():
            m[f"bitmap.ms_per_query.{label}"] = (_median_ms(elapsed), "ms")

    def core_probes(self) -> None:
        """Planner, one-pass ``both``, and the batch cache, on the served index set."""
        m = self.metrics
        db = target.share_indexes(self.db_all, target.SERVED_INDEXES)
        ops = self.inputs.range_ops[:self.probe]
        m["core.plan_ms"] = (
            _median_ms(_timed(target.Call(op).index_for, db)[0] for op in ops), "ms")

        elapsed = {"both": 0, "is_match": 0, "not_match": 0}
        for op in ops[:self.probe // 2]:
            for semantics in elapsed:
                call = target.Call({"route": "query",
                                    "body": {**op["body"], "semantics": semantics}}, "bre")
                elapsed[semantics] += _timed(call.on_database, db)[0]
        m["core.both_over_single_ratio"] = (
            2 * elapsed["both"] / (elapsed["is_match"] + elapsed["not_match"]), "ratio")

        groups = [op for op in self.inputs.served_ops if op["route"] == "batch"][:BATCH_GROUPS]
        before = db.sub_result_cache.stats()
        batch_ns = one_by_one_ns = 0
        for op in groups:
            batch_ns += _timed(target.Call(op).on_database, db)[0]
            singles = [target.Call({"route": "query", "body": {
                "bounds": bounds, "semantics": op["body"]["semantics"]}})
                for bounds in op["body"]["queries"]]
            one_by_one_ns += sum(_timed(call.on_database, db)[0] for call in singles)
        after = db.sub_result_cache.stats()
        hits, misses = after.hits - before.hits, after.misses - before.misses
        m["core.batch_cache_hit_rate"] = (hits / max(1, hits + misses), "fraction")
        m["core.batch_speedup"] = (one_by_one_ns / batch_ns, "ratio")

    # -- the served tier ------------------------------------------------------

    def http_tier(self, port: int) -> None:
        m = self.metrics
        connection = loadgen.Connection(port)
        try:
            m["serve.healthz_ms"] = (_median_ms(
                _timed(connection.request, "/healthz")[0] for _ in range(HEALTHZ_CALLS)), "ms")
            before = scrape(connection)
            sizes: list = []
            self.replay("http", self.over_http(connection, sizes))
            after = scrape(connection)
            http_ms = self.durations_ms("http")
            if not self.library:    # the first ops again, nothing between the calls
                bare_ns = [_timed(connection.request, *request)[0]
                           for request in self.requests[:self.probe]]
                m["observability.trace_overhead_ratio"] = (
                    float(np.median(http_ms[:self.probe])) / _median_ms(bare_ns), "ratio")
        finally:
            connection.close()
        m["serve.client_ms_1conn"] = (float(np.median(http_ms)), "ms")
        m["serve.client_p99_ms"] = (float(np.percentile(http_ms, 99)), "ms")
        m["serve.self_ms"] = (self.self_ms("http"), "ms")
        m["serve.handler_ms"] = (_delta_mean_ms(before, after, "repro_serve_request_ns"), "ms")
        m["serve.admission_wait_ms"] = (_delta_mean_ms(before, after, "repro_serve_wait_ns"), "ms")
        m["serve.response_kb_per_request"] = (statistics.fmean(sizes) / 1024, "kB")

        # The same first ops again over two connections at once.
        samples: list[loadgen.Sample] = []
        counter = loadgen.new_counter()
        loadgen.run_threads([(loadgen.read_loop, (
            port, self.requests, counter, lambda position: position < self.probe, samples))] * 2)
        self.result.attempted += len(samples)
        self.result.failed += sum(not s.ok for s in samples)
        two = statistics.median(s.end - s.start for s in samples) * 1e3
        m["serve.concurrency_penalty"] = (
            two / float(np.median(http_ms[:self.probe])), "ratio")

    def write_probe(self, port: int, first_epoch: int) -> None:
        """Three writes alone, then one beside a reader; every epoch mirrored and checked."""
        m = self.metrics
        routes = ("append", "delete", "compact", "append")
        write_ops = self.inputs.write_ops(routes)
        requests = loadgen.encode(write_ops)
        mirror = oracle.Mirror(self.inputs.columns, first_epoch)
        connection = loadgen.Connection(port)
        took_ms = []        # per write, in the order of ``routes``
        retained = []       # live epochs after each write
        reads: list[loadgen.Sample] = []

        def write(position: int) -> tuple[float, float]:
            start = time.perf_counter()
            status, body = connection.request(*requests[position])
            end = time.perf_counter()
            self.result.attempted += 1
            if status == 200:
                mirror.apply(write_ops[position], json.loads(body)["epoch"])
            else:
                self.result.failed += 1
            took_ms.append((end - start) * 1e3)
            retained.append(json.loads(connection.request("/epochs")[1])["retained"])
            return start, end

        try:
            start_metrics = scrape(connection)
            write(0)
            after_append = scrape(connection)
            write(1)
            write(2)
            stop = threading.Event()
            thread = threading.Thread(target=loadgen.read_loop, args=(
                port, self.requests, loadgen.new_counter(), lambda _: not stop.is_set(), reads))
            thread.start()
            try:
                time.sleep(WRITE_GAP_S)
                began, ended = write(3)
                time.sleep(WRITE_GAP_S)
            finally:
                stop.set()
                thread.join()
            end_metrics = scrape(connection)
        finally:
            connection.close()

        for route, ms in zip(routes[:3], took_ms):     # the three made with nothing else running
            m[f"writer.{route}_ms"] = (ms, "ms")
        m["writer.write_p50_ms"] = (statistics.median(took_ms), "ms")
        m["epoch.publish_ms"] = (
            _delta_mean_ms(start_metrics, end_metrics, "repro_epoch_publish_ns"), "ms")
        m["epoch.retained_max"] = (max(retained), "count")
        written = "repro_storage_bytes_written_total"
        m["storage.bytes_written_per_write"] = (
            (end_metrics[written] - start_metrics.get(written, 0)) / len(routes), "bytes")
        cells = data.APPEND_ROWS * len(data.ATTRIBUTES)
        m["storage.write_amplification"] = (
            (after_append[written] - start_metrics.get(written, 0)) / (8 * cells), "ratio")
        rejected = sum(v for k, v in end_metrics.items() if k.startswith("repro_serve_rejected"))
        m["serve.rejected"] = (rejected, "count")

        beside = [s.end - s.start for s in reads if began <= s.start and s.end <= ended]
        alone = [s.end - s.start for s in reads if s.end <= began or ended <= s.start]
        m["serve.write_interference_ratio"] = (
            statistics.median(beside) / statistics.median(alone) if beside and alone else 0.0,
            "ratio")
        self.result.attempted += workloads.verify_reads(
            self.result, reads, self.ops, mirror.columns)


def run(workload: str, seed: int, rows: int, scratch: Path, trace_ops: int,
        trace_file: Path) -> workloads.Result:
    traced = TracedRun(workload, seed, rows, trace_ops)
    traced.bitvector_probe(seed)
    traced.index_probes()
    traced.core_probes()
    traced.library_tiers()
    scratch.mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        directory = Path(stack.enter_context(tempfile.TemporaryDirectory(dir=scratch)))
        traced.sharded_tiers(directory)
        port, _ = stack.enter_context(loadgen.serving(directory))
        traced.http_tier(port)
        traced.write_probe(port, workloads.committed_generation(directory)[0])
    traced.tracer.write(trace_file)
    traced.result.notes["trace_file"] = str(trace_file)
    traced.result.notes["traced_ops"] = len(traced.ops)
    return traced.result
