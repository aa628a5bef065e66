"""The in-place WAH evaluator against the per-operator reference.

BRE and BEE queries on WAH run their Figure 2/3 expressions as ufuncs on
the stored group arrays and AND each bound in place.  The reference is the
same case analysis run one bitvector operator at a time
(``evaluate_interval`` / ``evaluate_interval_both`` and ``big_and``).  Both
must give the same ids, the same ``OpCounter`` fields and the same
registry counters — first-read decodes included — on one index, on an
index joined from four row ranges (seams on 31-row group boundaries and
off them) and on a row window, on the numpy coder and on the reference
coder (the ``coder`` fixture).
"""

import numpy as np
import pytest

from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.bitvector.ops import OpCounter, big_and
from repro.bitvector.wah import WahBitVector
from repro.dataset.synthetic import generate_uniform_table
from repro.observability import use_registry
from repro.query.boolean import Atom, evaluate_predicate_both, evaluate_tree
from repro.query.model import BOTH, RangeQuery, resolve_semantics

ENCODINGS = {"bre": RangeEncodedBitmapIndex, "bee": EqualityEncodedBitmapIndex}

#: 31 * 20 + 13 rows: the last 31-bit group is partial.
ROWS = 633

#: "b" has no missing value, so its certain and possible bounds can be one
#: array; it comes first in two queries (the bound that seeds the AND).
QUERIES = [
    {"b": (2, 4), "a": (3, 6)},
    {"b": (1, 5), "c": (2, 11)},
    {"a": (1, 8)},
    {"b": (1, 5)},
    {"a": (4, 4), "c": (7, 7)},
    {"a": (1, 3), "b": (3, 5), "c": (2, 11)},
    {"c": (1, 12), "a": (2, 7), "b": (1, 5)},
    {"a": (2, 8), "c": (1, 1)},
]

#: Row ranges of four segments: on 31-row boundaries, and off them (the
#: seams a delete leaves).
SEGMENTS = {
    "aligned": (0, 155, 310, 496, ROWS),
    "delete": (0, 150, 311, 497, ROWS),
}


def _table():
    return generate_uniform_table(
        ROWS, {"a": 8, "b": 5, "c": 12}, {"a": 0.2, "b": 0.0, "c": 0.3}, seed=11
    )


def _index(kind: str, layout: str):
    """A fresh WAH index laid out as ``layout``, and its first row."""
    cls, table = ENCODINGS[kind], _table()
    if layout in SEGMENTS:
        cuts = SEGMENTS[layout]
        parts = [cls(table.rows(a, b)) for a, b in zip(cuts, cuts[1:])]
        return cls.join(parts), 0
    index = cls(table)
    if layout == "window":
        return index.window(70, 405)
    return index, 0


def _reference(index, query, semantics, counter):
    """The per-operator evaluation the in-place one replaces."""
    columns = [
        index.evaluate_interval_both(name, interval, counter)
        if semantics is BOTH
        else (index.evaluate_interval(name, interval, semantics, counter),)
        for name, interval in query.items()
    ]
    return tuple(big_and(parts, counter) for parts in zip(*columns))


def _run(evaluate, index, query, semantics):
    counter = OpCounter()
    with use_registry() as registry:
        bounds = evaluate(index, query, semantics, counter)
    ids = tuple(vec.to_indices() for vec in bounds)
    return ids, counter, dict(registry.snapshot().counters)


def _fields(counter: OpCounter):
    return (counter.bitmaps_touched, counter.binary_ops, counter.not_ops,
            counter.words_processed)


@pytest.mark.parametrize("coder", ["numpy", "python"], indirect=True)
@pytest.mark.parametrize("layout", ["engine", "aligned", "delete", "window"])
@pytest.mark.parametrize("semantics", ["is_match", "not_match", "both"])
@pytest.mark.parametrize("kind", sorted(ENCODINGS))
def test_in_place_matches_the_operator_reference(
    kind, semantics, layout, coder, monkeypatch
):
    semantics = resolve_semantics(semantics)
    table = _table()
    fused, first = _index(kind, layout)
    reference, _ = _index(kind, layout)
    stop = first + fused.num_records
    for bounds in QUERIES:
        query = RangeQuery.from_bounds(bounds)
        want = _run(_reference, reference, query, semantics)
        with monkeypatch.context() as patch:  # no per-operator WAH call
            patch.setattr(WahBitVector, "_binary_op", _refuse)
            patch.setattr(WahBitVector, "__invert__", _refuse)
            got = _run(
                lambda ix, q, s, c: ix.execute_bounds(q, s, c),
                fused, query, semantics,
            )
        assert all(map(np.array_equal, got[0], want[0])), bounds
        assert _fields(got[1]) == _fields(want[1]), bounds
        assert got[2] == want[2], bounds
        # Both agree with a scan of the rows the index covers.
        oracle = _oracle(table, bounds, semantics, first, stop)
        assert all(map(np.array_equal, got[0], oracle)), bounds


def _refuse(*args, **kwargs):
    raise AssertionError("a WahBitVector operator ran")


def _oracle(table, bounds, semantics, start, stop):
    masks = []
    for name, (lo, hi) in bounds.items():
        column = table.column(name)[start:stop]
        certain = (column >= lo) & (column <= hi)
        masks.append((certain, certain | (column == 0)))
    certain = np.logical_and.reduce([m[0] for m in masks])
    possible = np.logical_and.reduce([m[1] for m in masks])
    if semantics is BOTH:
        return np.flatnonzero(certain), np.flatnonzero(possible)
    chosen = possible if semantics.value == "is_match" else certain
    return (np.flatnonzero(chosen),)


@pytest.mark.parametrize("coder", ["numpy", "python"], indirect=True)
@pytest.mark.parametrize("semantics", ["is_match", "not_match", "both"])
@pytest.mark.parametrize("kind", sorted(ENCODINGS))
def test_predicate_atoms_match_the_operator_reference(kind, semantics, coder):
    """Atoms through ``evaluate_bounds`` run in place; the tree's
    combinators then run as operators on the vectors they return."""
    semantics = resolve_semantics(semantics)
    predicate = (
        (Atom.of("a", 2, 4) | ~Atom.of("b", 1, 5)) & Atom.of("c", 1, 12)
    ) | (Atom.of("b", 3, 3) & ~Atom.of("a", 1, 8))
    fused, _ = _index(kind, "engine")
    reference, _ = _index(kind, "engine")

    def run(index, leaf):
        counter = OpCounter()
        with use_registry() as registry:
            bounds = evaluate_tree(predicate, semantics, leaf(index, counter),
                                   counter)
        return (tuple(vec.to_indices() for vec in bounds), _fields(counter),
                dict(registry.snapshot().counters))

    got = run(fused, lambda ix, c: lambda atom, s: ix.evaluate_bounds(
        atom.attribute, atom.interval, s, c))
    want = run(reference, lambda ix, c: lambda atom, s: (
        ix.evaluate_interval_both(atom.attribute, atom.interval, c)
        if s is BOTH
        else (ix.evaluate_interval(atom.attribute, atom.interval, s, c),)))
    assert all(map(np.array_equal, got[0], want[0]))
    assert got[1:] == want[1:]
    certain, possible = evaluate_predicate_both(_table(), predicate)
    expected = {"both": (certain, possible), "is_match": (possible,),
                "not_match": (certain,)}[semantics.value]
    assert all(map(np.array_equal, got[0], expected))


def test_aliased_bounds_are_not_written_through():
    """With no missing value the interval's two bounds are one array; the
    AND of the first bound must leave the second untouched."""
    index, _ = _index("bre", "engine")
    query = RangeQuery.from_bounds({"b": (2, 4), "a": (3, 6), "c": (2, 11)})
    certain, possible = index.execute_bound_ids(query, BOTH)
    table = _table()
    b, a, c = (table.column(name) for name in "bac")
    in_b = (b >= 2) & (b <= 4)
    assert np.array_equal(
        possible,
        np.flatnonzero(in_b & (((a >= 3) & (a <= 6)) | (a == 0))
                       & (((c >= 2) & (c <= 11)) | (c == 0))),
    )
    assert np.array_equal(
        certain, np.flatnonzero(in_b & (a >= 3) & (a <= 6) & (c >= 2) & (c <= 11))
    )
