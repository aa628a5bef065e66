"""Seeded inputs for the benchmark: the table, the query pool, the served ops.

Everything here is plain numpy driven by ``--seed``; nothing is imported
from ``repro``, so the program under test receives only generated inputs
and the oracle (:mod:`oracle`) sees exactly the same columns.

Table: 16 integer-coded attributes, value 0 = missing, domain ``1..C``.

* 12 *uniform* attributes ``c{C}m{P}`` — the paper's synthetic grid,
  C in {2, 10, 50, 100} x P in {10, 30, 50} % missing.  WAH barely
  compresses these (the paper's section 4.4 case).
* 4 *clustered* attributes ``z{C}m{P}`` — census-like: Zipf(s = 1.2)
  values laid down in runs of mean length 64, missing cells in runs too,
  so WAH compresses several-fold.

Query pool: conjunctive range queries made by inverting the paper's
global-selectivity formula for a 1 % target, ``k`` drawn from {2, 4, 8}
(Fig. 5c), attributes drawn uniformly from all 16, semantics cycling
``is_match`` / ``not_match`` / ``both`` by pool position.
"""

from __future__ import annotations

import numpy as np

import oracle

ROWS = 100_000
POOL_SIZE = 4096
TARGET_GS = 0.01
GS_SLACK = 3.0
MAX_REDRAWS = 64
SAMPLE_ROWS = 4096
DIMENSIONALITIES = (2, 4, 8)
SEMANTICS = ("is_match", "not_match", "both")
RUN_MEAN = 64
ZIPF_S = 1.2

UNIFORM = tuple((f"c{c}m{p}", c, p / 100) for c in (2, 10, 50, 100) for p in (10, 30, 50))
CLUSTERED = tuple((f"z{c}m{p}", c, p / 100) for c in (10, 100) for p in (10, 30))
ATTRIBUTES = UNIFORM + CLUSTERED
CARDINALITIES = {name: c for name, c, _ in ATTRIBUTES}
LOW_MISSING = tuple(name for name, _, p in ATTRIBUTES if p <= 0.1)

#: 10-op route pattern: 60 % /query, 20 % /count, 10 % /boolean, 10 % /batch.
#: A fixed pattern (not a draw) so every sub-window sees the same mix.
ROUTE_PATTERN = ("query", "query", "count", "query", "boolean",
                 "query", "query", "count", "query", "batch")
BATCH_SIZE = 8

APPEND_ROWS = 256
DELETE_IDS = 64
#: Writer cycle: three appends, one delete; every 8th op is a compaction.
WRITE_CYCLE = ("append", "append", "append", "delete")
COMPACT_EVERY = 8


def _clustered_column(rng, n: int, cardinality: int, missing: float) -> np.ndarray:
    runs = 2 * n // RUN_MEAN + 16
    weights = 1.0 / np.arange(1, cardinality + 1) ** ZIPF_S
    values = rng.choice(np.arange(1, cardinality + 1), size=runs, p=weights / weights.sum())
    values[rng.random(runs) < missing] = 0
    column = np.repeat(values, rng.geometric(1.0 / RUN_MEAN, size=runs))
    # Twice the runs needed on average; resize truncates (or, should the
    # draw ever come up short, wraps) to exactly n.
    return np.resize(column, n).astype(np.uint8)


def make_columns(rng, n: int) -> dict[str, np.ndarray]:
    """``{attribute: uint8 codes}`` for ``n`` rows drawn from ``rng``."""
    columns = {}
    for name, cardinality, missing in UNIFORM:
        column = rng.integers(1, cardinality + 1, size=n, dtype=np.uint8)
        column[rng.random(n) < missing] = 0
        columns[name] = column
    for name, cardinality, missing in CLUSTERED:
        columns[name] = _clustered_column(rng, n, cardinality, missing)
    return columns


def _interval(rng, name: str, selectivity: float) -> tuple[int, int]:
    cardinality = CARDINALITIES[name]
    width = int(min(cardinality, max(1, round(selectivity * cardinality))))
    lo = int(rng.integers(1, cardinality - width + 2))
    return lo, lo + width - 1


def _bounds(rng, k: int, semantics: str, target: float = TARGET_GS) -> dict:
    """One conjunctive query aimed at ``target`` global selectivity.

    The paper's formula, ``GS = prod((1 - Pm) * AS + Pm)`` under
    missing-is-a-match and ``prod((1 - Pm) * AS)`` otherwise, is inverted
    one attribute at a time, lowest cardinality first: what a coarse
    domain could not deliver is asked of the remaining, finer ones.
    """
    names = rng.choice(len(ATTRIBUTES), size=k, replace=False)
    chosen = sorted((ATTRIBUTES[i] for i in names), key=lambda a: a[1])
    bounds = {}
    remaining = target
    for position, (name, cardinality, missing) in enumerate(chosen):
        factor = remaining ** (1.0 / (k - position))
        if semantics == "not_match":
            wanted = factor / (1.0 - missing)
        else:   # aim the larger, possible, answer of "both" at the target too
            wanted = (factor - missing) / (1.0 - missing)
        lo, hi = _interval(rng, name, min(1.0, max(0.0, wanted)))
        bounds[name] = [lo, hi]
        achieved = (1.0 - missing) * (hi - lo + 1) / cardinality
        if semantics != "not_match":
            achieved += missing
        remaining = remaining / achieved
    return bounds


def _atom(rng, selectivity: float, exclude: set) -> dict:
    while True:
        name = LOW_MISSING[int(rng.integers(len(LOW_MISSING)))]
        if name not in exclude:
            break
    exclude.add(name)
    lo, hi = _interval(rng, name, selectivity)
    return {"atom": {"attribute": name, "lo": lo, "hi": hi}}


def _predicate(rng) -> dict:
    """A 2-3 atom AND/OR/NOT tree over distinct attributes (read-once).

    Atoms come from the 10 %-missing attributes only: every row missing an
    attribute is a possible match of an atom on it and of its negation, so
    a tree over the half-missing ones cannot be selective at all.
    """
    used: set = set()
    shape = int(rng.integers(3))
    narrow, wide = 0.05, 0.2
    if shape == 0:    # a AND NOT b
        return {"and": [_atom(rng, narrow, used), {"not": _atom(rng, 1 - narrow, used)}]}
    if shape == 1:    # a AND (b OR c)
        return {"and": [_atom(rng, narrow, used),
                        {"or": [_atom(rng, narrow, used), _atom(rng, narrow, used)]}]}
    return {"and": [_atom(rng, wide, used), _atom(rng, wide, used),   # a AND b AND NOT c
                    {"not": _atom(rng, 1 - wide, used)}]}


def _batch(rng, semantics: str) -> list[dict]:
    """Eight 3-attribute queries that all share two of their intervals."""
    shared = _bounds(rng, 3, semantics)
    *kept, varied = shared
    cardinality = CARDINALITIES[varied]
    width = shared[varied][1] - shared[varied][0] + 1
    queries = []
    for _ in range(BATCH_SIZE):
        lo = int(rng.integers(1, cardinality - width + 2))
        queries.append({**{name: shared[name] for name in kept},
                        varied: [lo, lo + width - 1]})
    return queries


def _draw(sample: dict, route: str, semantics: str, make) -> dict:
    """An op whose answer, measured on a row sample, stays near the target.

    The formula assumes uniform values and cannot reach 1 % for every
    attribute set: two half-missing attributes match a quarter of the
    table under missing-is-a-match whatever the intervals, and a Zipf
    attribute's first values hold most of its rows.  Like the paper, which
    reports up to 3 % against its 1 % target, a draw whose measured
    selectivity exceeds ``GS_SLACK`` times the target is redrawn; without
    this a few enormous id lists carry most of a served run's time and
    runs with different seeds do not repeat.
    """
    rows = len(next(iter(sample.values())))
    for _ in range(MAX_REDRAWS):
        op = {"route": route, "body": {**make(), "semantics": semantics}}
        answer = oracle.expected(sample, op)
        if sum(len(ids) for ids in answer) <= GS_SLACK * TARGET_GS * rows * len(answer):
            break
    return op


def make_ops(rng, sample: dict, size: int = POOL_SIZE) -> tuple[list[dict], list[dict]]:
    """The query pool and the served ops, ``size`` of each, as ``{"route", "body"}``.

    The pool is all ``/query`` range ops.  The served ops follow the fixed
    route mix; their ``/query`` and ``/count`` slots reuse the pool's op at
    the same position, so library and served workloads run the same
    predicates.
    """
    pool, served = [], []
    for position in range(size):
        semantics = SEMANTICS[position % len(SEMANTICS)]
        k = int(rng.choice(DIMENSIONALITIES))
        pool.append(_draw(sample, "query", semantics,
                          lambda: {"bounds": _bounds(rng, k, semantics)}))
        route = ROUTE_PATTERN[position % len(ROUTE_PATTERN)]
        if route == "boolean":
            served.append(_draw(sample, route, semantics,
                                lambda: {"predicate": _predicate(rng)}))
        elif route == "batch":
            served.append(_draw(sample, route, semantics,
                                lambda: {"queries": _batch(rng, semantics)}))
        else:
            served.append({"route": route, "body": pool[-1]["body"]})
    return pool, served


def write_schedule(count: int) -> list[str]:
    """The writer's cycle: append x3, delete; every 8th op a compaction."""
    return ["compact" if position % COMPACT_EVERY == COMPACT_EVERY - 1
            else WRITE_CYCLE[position % len(WRITE_CYCLE)]
            for position in range(count)]


def make_write_ops(rng, routes, rows: int) -> list[dict]:
    """One write op per route name, for a table that starts at ``rows`` rows.

    Delete ids are drawn against the row count the table will have when
    the op runs, which the fixed order makes known in advance.
    """
    ops = []
    for route in routes:
        body = {}
        if route == "append":
            columns = make_columns(rng, APPEND_ROWS)
            body = {"rows": {name: column.tolist() for name, column in columns.items()}}
            rows += APPEND_ROWS
        elif route == "delete":
            ids = rng.choice(rows, size=DELETE_IDS, replace=False)
            body = {"record_ids": sorted(int(i) for i in ids)}
            rows -= DELETE_IDS
        ops.append({"route": route, "body": body})
    return ops


class Inputs:
    """Everything one run needs, derived from the seed alone."""

    def __init__(self, seed: int, rows: int = ROWS, pool_size: int = POOL_SIZE):
        self.seed = seed
        self.rows = rows
        table_rng, ops_rng, write_rng = (
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
        )
        self.columns = make_columns(table_rng, rows)
        picked = table_rng.choice(rows, size=min(rows, SAMPLE_ROWS), replace=False)
        sample = {name: column[picked] for name, column in self.columns.items()}
        self.range_ops, self.served_ops = make_ops(ops_rng, sample, pool_size)
        self._write_rng = write_rng

    def write_ops(self, routes) -> list[dict]:
        return make_write_ops(self._write_rng, routes, self.rows)
