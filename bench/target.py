"""Every call the benchmark makes into ``repro``, in one place.

The benchmark measures the program from outside, through public entry
points only.  Keeping them in this module makes the list auditable: a
refactor that wants comparable numbers on both sides of a change has to
keep exactly these working (``bench/README.md`` repeats the list).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from types import SimpleNamespace

from repro import (
    And,
    Atom,
    IncompleteDatabase,
    IncompleteTable,
    Not,
    Or,
    RangeQuery,
    Schema,
    ShardedDatabase,
    load_sharded,
    save_sharded,
)
from repro import observability as obs
from repro.query.model import BOTH, resolve_semantics

import data

NUM_SHARDS = 4
SERVED_INDEXES = ("bre", "vafile")


def make_table(columns: dict) -> IncompleteTable:
    return IncompleteTable(Schema.from_cardinalities(data.CARDINALITIES), columns)


def make_database(table: IncompleteTable, kinds, seconds: dict | None = None) -> IncompleteDatabase:
    """An in-process database with one index per kind, named after it.

    ``seconds``, when given, receives each kind's build time.
    """
    db = IncompleteDatabase(table)
    for kind in kinds:
        start = time.perf_counter()
        db.create_index(kind, kind)
        if seconds is not None:
            seconds[kind] = time.perf_counter() - start
    return db


def share_indexes(db: IncompleteDatabase, kinds) -> IncompleteDatabase:
    """A second database over the same table holding only ``kinds``, not rebuilt."""
    subset = IncompleteDatabase(db.table)
    for kind in kinds:
        subset.attach_index(kind, kind, db.get_index(kind).index)
    return subset


def make_sharded(table: IncompleteTable, kinds=SERVED_INDEXES, num_shards: int = NUM_SHARDS,
                 executor: str | None = None) -> ShardedDatabase:
    """The served layout: contiguous shards, one index per kind on each."""
    db = ShardedDatabase(table, num_shards=num_shards, executor=executor)
    for kind in kinds:
        db.create_index(kind, kind)
    return db


def index_bytes(db: IncompleteDatabase) -> int:
    """Stored size of every attached index (the paper's Fig. 4 currency)."""
    return sum(db.get_index(name).index.nbytes() for name in db.index_names)


def predicate(node: dict):
    """The JSON predicate tree as ``repro`` predicate objects."""
    (op, value), = node.items()
    if op == "atom":
        return Atom.of(value["attribute"], value["lo"], value["hi"])
    if op == "not":
        return Not(predicate(value))
    children = tuple(predicate(child) for child in value)
    return And(children) if op == "and" else Or(children)


class Call:
    """One op prepared for in-process execution at any tier.

    Parsing (bounds to ``RangeQuery``, JSON tree to predicate objects) is
    done once here, outside every timed region; the HTTP tier pays its
    own parsing inside the server, which is part of what it costs.
    """

    __slots__ = ("route", "semantics", "using", "query", "queries", "tree")

    def __init__(self, op: dict, using: str | None = None):
        body = op["body"]
        self.route = op["route"]
        self.semantics = resolve_semantics(body["semantics"])
        self.using = using
        self.query = self.queries = self.tree = None
        if self.route == "batch":
            self.queries = [RangeQuery.from_bounds({k: tuple(v) for k, v in q.items()})
                            for q in body["queries"]]
        elif self.route == "boolean":
            self.tree = predicate(body["predicate"])
        else:
            self.query = RangeQuery.from_bounds(
                {k: tuple(v) for k, v in body["bounds"].items()})

    def on_database(self, db):
        """Run on an ``IncompleteDatabase`` or ``ShardedDatabase``."""
        if self.route == "batch":
            return db.execute_batch(self.queries, self.semantics, using=self.using)
        if self.route == "boolean":
            return db.query_predicate(self.tree, self.semantics, using=self.using)
        return db.execute(self.query, self.semantics, using=self.using)

    def on_index(self, db: IncompleteDatabase):
        """Run a range op directly on the index ``db.execute`` would use.

        Returns ``None`` for /boolean and /batch, which have no
        single-index form.  The result mimics a report so the oracle can
        read it the same way at every tier.
        """
        if self.query is None:
            return None
        index = self.index_for(db).index
        if self.semantics is BOTH:
            certain, possible = index.execute_ids_both(self.query)
            return SimpleNamespace(certain_ids=certain, possible_ids=possible)
        return SimpleNamespace(record_ids=index.execute_ids(self.query, self.semantics))

    def index_for(self, db: IncompleteDatabase):
        if self.using is not None:
            return db.get_index(self.using)
        semantics = self.semantics
        if semantics is BOTH:
            semantics = resolve_semantics("is_match")
        return db.choose_index(self.query, semantics)


@contextmanager
def telemetry():
    """Registry + recorder installed as ``repro.experiments serve`` installs them.

    Scoped to the ``with`` body; yields the registry, whose counters are
    the exact per-layer work counts of whatever ran inside.
    """
    with obs.use_registry(obs.MetricsRegistry()) as registry, \
            obs.use_recorder(obs.WorkloadRecorder()):
        yield registry


def counters(registry) -> dict:
    return dict(registry.snapshot().counters)


def histograms(registry) -> dict:
    """``{name: (count, total)}`` for every histogram in the registry."""
    return {name: (h.count, h.total) for name, h in registry.snapshot().histograms.items()}


__all__ = [
    "Call", "NUM_SHARDS", "counters", "histograms", "index_bytes",
    "load_sharded", "make_database", "make_sharded", "make_table",
    "save_sharded", "share_indexes", "telemetry",
]
