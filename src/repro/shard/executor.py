"""Pluggable shard-fanout executors: sequential and processes.

:class:`~repro.shard.sharded.ShardedDatabase` plans and merges; *how* the
surviving shards actually evaluate their slice of the work is this module's
job.  Two backends implement one interface:

``sequential``
    The default: evaluate shards one after another in the caller's thread.
    Zero setup, deterministic, and the reference ``processes`` is tested
    against.
``processes``
    Long-lived worker processes, each holding resident
    :class:`~repro.core.engine.IncompleteDatabase` engines for its shards.
    Workers bootstrap **once** — either by memory-mapping the saved RPF1
    files of a :func:`~repro.shard.manifest.load_sharded` generation
    directory, or by attaching the parent's column arrays and serialized
    indexes through :mod:`multiprocessing.shared_memory` — so shard rows
    are never pickled per query.  Per query, only compact plan descriptors
    go out and only result-id arrays (plus metric/trace deltas) come back.

Backends are selected by the ``executor=`` argument of
:class:`~repro.shard.sharded.ShardedDatabase`, or — when that is left unset
— by the ``REPRO_SHARD_EXECUTOR`` environment variable; with neither given,
shard tasks run inline (``sequential``).

Exactness contract: every backend returns word-identical record-id sets
under both missing semantics.  Worker processes replicate parent-side index
mutations (append/delete/compact bump the index generation; create/drop
bump the database's index epoch) through a staleness fence checked before
every fan-out, and their metric and trace deltas merge back into the
parent's registry so ``shard.*`` / ``engine.*`` telemetry stays exact.
"""

from __future__ import annotations

import os
import traceback
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.errors import ShardError
from repro.query.model import MissingSemantics, RangeQuery, ThreeValued

__all__ = [
    "EXECUTOR_ENV_VAR",
    "EXECUTORS",
    "ProcessShardExecutor",
    "SequentialShardExecutor",
    "ShardExecutor",
    "ShardOutcome",
    "ShardTask",
    "resolve_executor",
]

EXECUTOR_ENV_VAR = "REPRO_SHARD_EXECUTOR"

#: Index kinds whose serialized form a worker process can reconstruct.
_BITMAP_KINDS = frozenset({"bee", "bre", "bie"})
_SHIPPABLE_KINDS = _BITMAP_KINDS | {"vafile"}


# -- task / outcome descriptors ------------------------------------------------
#
# Everything that crosses an executor boundary is one of these two compact,
# picklable records.  Index objects never travel in them: tasks carry index
# *names* plus the pre-combined cost estimate, and the receiving side looks
# the index up in its own (resident) engine.

@dataclass(frozen=True, slots=True)
class ShardTask:
    """One shard's surviving slice of a scatter-gather call.

    A single query is a one-position task; a predicate call is a task
    whose one item is a :class:`~repro.query.boolean.Predicate`.
    """

    shard_id: int
    #: Submission-order positions of the items this shard executes.
    positions: tuple[int, ...]
    #: The :class:`RangeQuery` (or predicate) at each position.
    items: tuple
    #: Per-position ``(index_name, estimate, forced)`` plan descriptors;
    #: ``index_name`` None is the scan fallback.
    plans: tuple[tuple, ...]
    #: Any resolved semantics, ``BOTH`` included; fixes the results' arity.
    semantics: MissingSemantics | ThreeValued
    trace: bool


@dataclass(frozen=True, slots=True)
class ShardOutcome:
    """One shard's answers to a :class:`ShardTask`, in position order."""

    shard_id: int
    #: Per-position ``(bound_ids, elapsed_ns, trace_root)``: shard-local
    #: record ids (ascending int64) one array per bound, the shard-side
    #: execution time, and the span tree when the task asked for tracing.
    results: tuple[tuple, ...] = field(repr=False)


# -- shared in-process evaluation ----------------------------------------------

def _run_task(database, task: ShardTask) -> ShardOutcome:
    """Evaluate one task against a (local or worker-resident) engine.

    A lone query runs direct and cache-free, exactly as the engine's own
    ``execute`` does; several run through the engine's grouped batch
    executor with the shard's sub-result cache.
    """
    # Plan descriptors resolved against the receiving engine's indexes.
    plans = [
        (database.get_index(name), estimate, forced)
        if name is not None
        else (None, None, False)
        for name, estimate, forced in task.plans
    ]
    if not isinstance(task.items[0], RangeQuery):
        reports = [
            database._execute_predicate(item, task.semantics, chosen)
            for item, (chosen, _, _) in zip(task.items, plans)
        ]
    elif len(task.items) == 1:
        reports = [database._execute_query(
            task.items[0],
            task.semantics,
            using=None,
            trace=task.trace,
            planned=plans[0],
            recorded=False,
        )]
    else:
        reports = database._run_planned_batch(
            list(task.items),
            plans,
            task.semantics,
            task.trace,
            database.sub_result_cache,
            recorded=False,
        )
    return ShardOutcome(task.shard_id, tuple(
        (
            tuple(np.asarray(ids, dtype=np.int64) for ids in r.bound_ids),
            r.elapsed_ns,
            r.trace.root if r.trace is not None else None,
        )
        for r in reports
    ))


# -- the executor interface ----------------------------------------------------

class ShardExecutor:
    """How a :class:`ShardedDatabase` evaluates its per-shard task list.

    Implementations receive the owning database on every call (executors
    hold no strong reference to it, so ``weakref.finalize`` cleanup on the
    database can keep the executor alive without leaking the database).
    ``close()`` must be idempotent; the database raises on double-close,
    its executor does not.
    """

    name = "?"

    def run(self, db, tasks) -> list[ShardOutcome]:
        """Evaluate the tasks (each non-empty); outcomes in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release processes/shared memory (idempotent)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SequentialShardExecutor(ShardExecutor):
    """Evaluate every shard in the caller's thread, one after another."""

    name = "sequential"

    def run(self, db, tasks):
        if obs.enabled():
            obs.record("shard.sequential_fanouts")
        return [_run_task(db._shards[t.shard_id].database, t) for t in tasks]


# -- process backend -----------------------------------------------------------

def _attach_shared_memory(name: str):
    """Attach an existing segment without resource-tracker ownership.

    Python 3.13 grew ``track=False``; on older versions the attach
    registers with the resource tracker, whose exit-time cleanup would
    unlink a segment the *parent* still owns (bpo-38119) — and under the
    ``fork`` start method the tracker is shared with the parent, so even
    attach-then-unregister would cancel the parent's own registration.
    Suppressing the register call during attach sidesteps both.
    """
    from multiprocessing import resource_tracker, shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _load_index_entry(db, entry: dict, shm_view) -> None:
    """Deserialize one shipped index and attach it to a worker engine."""
    from repro.storage.serialize import (
        load_bitmap_index,
        load_bitmap_index_file,
        load_vafile,
        load_vafile_file,
    )

    mode, *detail = entry["source"]
    if mode == "shm":
        offset, length = detail
        blob = shm_view[offset:offset + length]
    elif mode == "blob":
        blob = detail[0]
    else:
        blob = None
    if entry["kind"] == "vafile":
        if blob is None:
            index = load_vafile_file(detail[0], db.table, use_mmap=True)
        else:
            index = load_vafile(blob, db.table)
    else:
        if blob is None:
            index = load_bitmap_index_file(detail[0], use_mmap=True)
        else:
            index = load_bitmap_index(blob)
    db.attach_loaded_index(
        entry["name"],
        entry["kind"],
        index,
        attributes=entry["attributes"],
        generation=entry.get("generation"),
        deleted=entry.get("deleted"),
    )


def _build_worker_engine(payload: dict, attachments: list):
    """Reconstruct one shard's engine from a bootstrap payload.

    The table comes either from the saved ``table.npz`` (mmap-free but
    page-cache shared) or from columns viewed directly over the parent's
    shared-memory segment; indexes come from mmap'd RPF1 files, from
    blobs inside the segment, or from pipe-shipped blobs.  Either way the
    worker never re-validates or copies row data.
    """
    from repro.core.engine import IncompleteDatabase
    from repro.dataset.io import load_table

    shm_view = None
    if payload.get("shm"):
        shm = _attach_shared_memory(payload["shm"])
        attachments.append(shm)
        # Read-only view: worker-side numpy arrays over the segment come
        # out non-writable, matching the file-load discipline.
        shm_view = memoryview(shm.buf).toreadonly()
    mode, detail = payload["table"]
    if mode == "shm":
        columns = {
            name: np.frombuffer(
                shm_view, dtype=np.int64, count=count, offset=offset
            )
            for name, offset, count in detail
        }
        db = IncompleteDatabase.from_columns(
            payload["specs"], columns, cache_bytes=payload["cache_bytes"]
        )
    else:
        db = IncompleteDatabase(
            load_table(detail), cache_bytes=payload["cache_bytes"]
        )
    for entry in payload["indexes"]:
        _load_index_entry(db, entry, shm_view)
    return db


def _worker_main(conn) -> None:
    """Worker-process loop: bootstrap once, then serve plan descriptors.

    Replies are always ``(status, payload, metrics)`` triples; ``metrics``
    carries the registry delta accumulated while serving the request (so
    partial work done before an error still counts in the parent).
    """
    from repro.bitvector import kernels

    engines: dict[int, object] = {}
    attachments: list = []
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        metrics = None
        try:
            if kind == "bootstrap":
                _, payloads, backend = message
                kernels.set_backend(backend)
                for payload in payloads:
                    engines[payload["shard_id"]] = _build_worker_engine(
                        payload, attachments
                    )
                reply = ("ok", None, None)
            elif kind == "sync":
                _, shard_id, entries, drops = message
                database = engines[shard_id]
                for name in drops:
                    if name in database.index_names:
                        database.drop_index(name)
                shm_view = None
                for entry in entries:
                    _load_index_entry(database, entry, shm_view)
                reply = ("ok", None, None)
            elif kind == "run":
                _, tasks, observing = message
                if observing:
                    registry = obs.MetricsRegistry()
                    with obs.use_registry(registry):
                        outcomes = [
                            _run_task(engines[t.shard_id], t) for t in tasks
                        ]
                    metrics = registry.dump_state()
                else:
                    outcomes = [
                        _run_task(engines[t.shard_id], t) for t in tasks
                    ]
                # Span trees cross the pipe as plain payload dicts.
                payload = [
                    (
                        o.shard_id,
                        [
                            (
                                ids,
                                ns,
                                root.to_payload() if root is not None else None,
                            )
                            for ids, ns, root in o.results
                        ],
                    )
                    for o in outcomes
                ]
                reply = ("ok", payload, metrics)
            else:
                raise ShardError(f"unknown worker message {kind!r}")
        except BaseException as exc:
            tb = traceback.format_exc()
            try:
                reply = ("error", (exc, tb), metrics)
                conn.send(reply)
                continue
            except Exception:
                fallback = ShardError(
                    f"worker raised an unpicklable exception: {exc!r}"
                )
                reply = ("error", (fallback, tb), None)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except Exception:
        pass
    # Engines hold numpy views over the attached segments; drop them (and
    # collect) before closing, or mmap refuses with "exported pointers
    # exist" and the interpreter-shutdown __del__ spams stderr.
    engines.clear()
    import gc

    gc.collect()
    for shm in attachments:
        try:
            shm.close()
        except Exception:
            pass


def _finalize_process_state(procs, conns, segments) -> None:
    """Tear down worker processes and shared memory (idempotent pieces)."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    for shm in segments:
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass


class ProcessShardExecutor(ShardExecutor):
    """Long-lived worker processes holding resident shard engines.

    Parameters
    ----------
    max_workers:
        Worker-process count; defaults to the database's explicit
        ``max_workers`` or ``min(num_shards, os.cpu_count())``.  Shards
        are assigned round-robin, so fewer workers than shards serializes
        some shards within a worker but stays exact.
    start_method:
        ``"spawn"`` (default; no inherited locks or file handles) or
        ``"fork"`` (faster startup; the :mod:`repro.forksafe` registry
        re-arms inherited locks in the child).

    The executor binds to the first database it serves: bootstrap ships
    that database's shard tables and indexes once, and a per-shard
    staleness fence re-ships serialized indexes whenever the parent's
    index epoch or any index generation moves.
    """

    name = "processes"

    def __init__(
        self,
        max_workers: int | None = None,
        start_method: str = "spawn",
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if start_method not in ("spawn", "fork", "forkserver"):
            raise ShardError(
                f"unknown start method {start_method!r}; expected "
                f"'spawn', 'fork', or 'forkserver'"
            )
        self._max_workers = max_workers
        self._start_method = start_method
        self._procs: list = []
        self._conns: list = []
        self._segments: list = []
        self._shard_worker: dict[int, int] = {}
        self._shipped: dict[int, tuple] = {}
        self._bound: weakref.ref | None = None
        self._closed = False

    # -- fingerprints / staleness fence ------------------------------------

    @staticmethod
    def _shard_fingerprint(db, shard) -> tuple:
        entries = []
        for name in sorted(shard.database.index_names):
            attached = shard.database.get_index(name)
            entries.append((
                name,
                attached.kind,
                attached.attributes,
                int(getattr(attached.index, "generation", 0) or 0),
                int(getattr(attached.index, "deleted_count", 0) or 0),
            ))
        return (db._index_epoch, tuple(entries))

    # -- bootstrap ---------------------------------------------------------

    @staticmethod
    def _index_state(attached) -> dict:
        index = attached.index
        deleted = getattr(index, "_deleted", None)
        return {
            "name": attached.name,
            "kind": attached.kind,
            "attributes": attached.attributes,
            "generation": int(getattr(index, "generation", 0) or 0),
            "deleted": deleted.tobytes() if deleted is not None else None,
        }

    @classmethod
    def _index_blob_entry(cls, attached) -> dict:
        from repro.storage.serialize import dump_bitmap_index, dump_vafile

        if attached.kind not in _SHIPPABLE_KINDS:
            raise ShardError(
                f"the process shard executor cannot replicate index "
                f"{attached.name!r} of kind {attached.kind!r}; "
                f"shippable kinds are {sorted(_SHIPPABLE_KINDS)}"
            )
        if attached.kind == "vafile":
            blob = dump_vafile(attached.index)
        else:
            blob = dump_bitmap_index(attached.index)
        entry = cls._index_state(attached)
        entry["source"] = ("blob", blob)
        return entry

    def _payload_for_shard(self, db, shard) -> dict:
        """Bootstrap payload: mmap'd files when pristine, shm otherwise."""
        table = shard.database.table
        storage = (db._storage or {}).get(shard.shard_id)
        payload = {
            "shard_id": shard.shard_id,
            "cache_bytes": db._cache_bytes,
            "specs": [
                (spec.name, spec.cardinality) for spec in table.schema
            ],
            "shm": None,
            "indexes": [],
        }
        if storage is not None:
            payload["table"] = ("file", storage["table"])
            for name in shard.database.index_names:
                attached = shard.database.get_index(name)
                path = storage["indexes"].get(name)
                index = attached.index
                pristine = (
                    path is not None
                    and not int(getattr(index, "generation", 0) or 0)
                    and getattr(index, "_deleted", None) is None
                )
                if pristine:
                    entry = self._index_state(attached)
                    entry["source"] = ("file", path)
                    payload["indexes"].append(entry)
                else:
                    payload["indexes"].append(
                        self._index_blob_entry(attached)
                    )
            return payload
        from multiprocessing import shared_memory

        chunks: list[bytes] = []
        offset = 0
        column_info = []
        for name in table.schema.names:
            data = table.column(name).tobytes()
            column_info.append((name, offset, table.num_records))
            chunks.append(data)
            offset += len(data)
        payload["table"] = ("shm", column_info)
        for name in shard.database.index_names:
            entry = self._index_blob_entry(shard.database.get_index(name))
            blob = entry["source"][1]
            entry["source"] = ("shm", offset, len(blob))
            payload["indexes"].append(entry)
            chunks.append(blob)
            offset += len(blob)
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        position = 0
        for data in chunks:
            shm.buf[position:position + len(data)] = data
            position += len(data)
        self._segments.append(shm)
        payload["shm"] = shm.name
        return payload

    def _worker_count(self, db) -> int:
        if self._max_workers is not None:
            workers = self._max_workers
        elif db._max_workers is not None:
            workers = db._max_workers
        else:
            workers = os.cpu_count() or 1
        return max(1, min(workers, db.num_shards))

    def _start(self, db) -> None:
        import multiprocessing as mp

        from repro.bitvector.kernels import get_backend

        context = mp.get_context(self._start_method)
        workers = self._worker_count(db)
        payloads: dict[int, list[dict]] = {i: [] for i in range(workers)}
        try:
            for shard in db._shards:
                worker_id = shard.shard_id % workers
                self._shard_worker[shard.shard_id] = worker_id
                payloads[worker_id].append(
                    self._payload_for_shard(db, shard)
                )
            for worker_id in range(workers):
                parent_conn, child_conn = context.Pipe()
                proc = context.Process(
                    target=_worker_main,
                    args=(child_conn,),
                    daemon=True,
                    name=f"repro-shard-worker-{worker_id}",
                )
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
                parent_conn.send(
                    ("bootstrap", payloads[worker_id], get_backend().name)
                )
            for worker_id in range(workers):
                self._recv(worker_id)
        except BaseException:
            _finalize_process_state(
                self._procs, self._conns, self._segments
            )
            self._procs, self._conns, self._segments = [], [], []
            self._shard_worker.clear()
            raise
        for shard in db._shards:
            self._shipped[shard.shard_id] = self._shard_fingerprint(
                db, shard
            )
        self._bound = weakref.ref(db)

    def _ensure_ready(self, db) -> None:
        if self._closed:
            raise ShardError("this shard executor has been closed")
        if self._bound is None:
            self._start(db)
            return
        if self._bound() is not db:
            raise ShardError(
                "a ProcessShardExecutor is bound to the first "
                "ShardedDatabase it serves; create a fresh executor for "
                "each database"
            )
        self._sync_stale_shards(db)

    def _sync_stale_shards(self, db) -> None:
        """Re-ship any shard whose index state moved since last fan-out."""
        for shard in db._shards:
            fingerprint = self._shard_fingerprint(db, shard)
            if self._shipped.get(shard.shard_id) == fingerprint:
                continue
            shipped_names = {
                entry[0] for entry in self._shipped[shard.shard_id][1]
            }
            current = set(shard.database.index_names)
            entries = [
                self._index_blob_entry(shard.database.get_index(name))
                for name in sorted(current)
            ]
            drops = sorted(shipped_names - current)
            worker_id = self._shard_worker[shard.shard_id]
            self._send(worker_id, ("sync", shard.shard_id, entries, drops))
            self._recv(worker_id)
            self._shipped[shard.shard_id] = fingerprint
            if obs.enabled():
                obs.record("shard.executor.syncs")

    # -- the wire ----------------------------------------------------------

    def _send(self, worker_id: int, message) -> None:
        try:
            self._conns[worker_id].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise ShardError(
                f"shard worker {worker_id} is gone "
                f"(exitcode {self._procs[worker_id].exitcode}): {exc}"
            ) from exc

    def _recv(self, worker_id: int):
        try:
            status, payload, metrics = self._conns[worker_id].recv()
        except (EOFError, OSError) as exc:
            raise ShardError(
                f"shard worker {worker_id} died before replying "
                f"(exitcode {self._procs[worker_id].exitcode})"
            ) from exc
        if metrics:
            obs.get_registry().merge_state(metrics)
        if status == "error":
            exc, tb = payload
            if hasattr(exc, "add_note"):
                exc.add_note(f"shard worker {worker_id} traceback:\n{tb}")
            raise exc
        return payload

    def run(self, db, tasks):
        """Send every worker its task slice, then gather all replies.

        Replies are drained from every messaged worker even if one raised,
        so a failed fan-out never leaves stale replies queued for the next
        one; the first worker error re-raises after the drain.
        """
        from repro.observability.trace import Span

        self._ensure_ready(db)
        observing = obs.enabled()
        by_worker: dict[int, list] = {}
        for task in tasks:
            by_worker.setdefault(
                self._shard_worker[task.shard_id], []
            ).append(task)
        for worker_id, worker_tasks in by_worker.items():
            self._send(worker_id, ("run", worker_tasks, observing))
        by_shard: dict[int, ShardOutcome] = {}
        failure: BaseException | None = None
        for worker_id in by_worker:
            try:
                for shard_id, results in self._recv(worker_id):
                    by_shard[shard_id] = ShardOutcome(shard_id, tuple(
                        (
                            ids,
                            ns,
                            Span.from_payload(root) if root is not None else None,
                        )
                        for ids, ns, root in results
                    ))
            except BaseException as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        if observing:
            obs.record("shard.process_fanouts")
        return [by_shard[task.shard_id] for task in tasks]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _finalize_process_state(self._procs, self._conns, self._segments)
        self._procs, self._conns, self._segments = [], [], []
        self._shard_worker.clear()
        self._shipped.clear()
        self._bound = None


# -- registry / resolution -----------------------------------------------------

EXECUTORS: dict[str, type[ShardExecutor]] = {
    "sequential": SequentialShardExecutor,
    "processes": ProcessShardExecutor,
}


def resolve_executor(
    spec: str | ShardExecutor | None = None,
) -> ShardExecutor:
    """Turn an executor spec into an instance.

    Resolution order: an explicit instance or registry name wins; otherwise
    the ``REPRO_SHARD_EXECUTOR`` environment variable; otherwise
    ``sequential``.
    """
    if isinstance(spec, ShardExecutor):
        return spec
    name = spec
    if name is None:
        name = os.environ.get(EXECUTOR_ENV_VAR) or "sequential"
    try:
        factory = EXECUTORS[name]
    except KeyError:
        raise ShardError(
            f"unknown shard executor {name!r}; expected one of "
            f"{sorted(EXECUTORS)} (or a ShardExecutor instance)"
        )
    return factory()
