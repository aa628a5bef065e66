"""Three-valued (``semantics="both"``) execution and the NOT bound-swap.

Two families of guarantees, both pinned against the brute-force oracle:

* **The NOT fix.**  NOT negates *across* the semantics pair —
  ``certain(not p) = complement of possible(p)`` and vice versa — in every
  evaluator (oracle mask, bitmap indexes, VA-file).  Earlier revisions
  complemented within a single semantics, which wrongly put every missing
  row in the certain answer of ``not p``.
* **One-pass both-bounds execution.**  ``semantics="both"`` returns the
  (certain, possible) pair in a single pass, and each bound is exactly
  what the corrected single-semantics run returns — through the engine,
  the sharded database, every encoding, and every kernel backend.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.bitsliced import BitSlicedIndex
from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.interval_encoded import IntervalEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.baselines.seqscan import SequentialScan
from repro.bitvector.kernels import available_backends, use_backend
from repro.core.engine import IncompleteDatabase, RankedReport
from repro.dataset.synthetic import generate_uniform_table
from repro.errors import QueryError
from repro.query import boolean, ground_truth
from repro.query.boolean import (
    And,
    Atom,
    Not,
    Or,
    evaluate_predicate,
    evaluate_predicate_both,
    evaluate_predicate_mask,
    evaluate_predicate_mask_both,
    evaluate_tree,
)
from repro.query.ground_truth import evaluate_mask, evaluate_mask_both
from repro.query.model import (
    BOTH,
    Interval,
    MissingSemantics,
    RangeQuery,
    resolve_semantics,
)
from repro.shard.sharded import ShardedDatabase
from repro.vafile.vafile import VAFile



def bitmap_bounds(index, predicate, semantics, counter=None):
    """The one walker over a bitmap index: a tuple of bitvectors."""
    return evaluate_tree(
        predicate,
        semantics,
        lambda atom, sem: index.evaluate_bounds(
            atom.attribute, atom.interval, sem, counter
        ),
        counter,
    )


def vafile_bounds(va, predicate, semantics):
    """The one walker over a VA-file: a tuple of exact boolean masks."""

    def leaf(atom, sem):
        masks = []
        for ids in va.execute_bound_ids(
            RangeQuery({atom.attribute: atom.interval}), sem
        ):
            mask = np.zeros(va.num_records, dtype=bool)
            mask[ids] = True
            masks.append(mask)
        return masks

    return evaluate_tree(predicate, semantics, leaf)


BITMAP_CLASSES = [
    EqualityEncodedBitmapIndex,
    RangeEncodedBitmapIndex,
    IntervalEncodedBitmapIndex,
    BitSlicedIndex,
]


@pytest.fixture
def table():
    return generate_uniform_table(
        500, {"a": 10, "b": 5}, {"a": 0.25, "b": 0.15}, seed=17
    )


@pytest.fixture
def query():
    return RangeQuery.from_bounds({"a": (3, 8), "b": (2, 4)})


PREDICATES = [
    Not(Atom.of("a", 2, 6)),
    Atom.of("a", 3, 7) & ~Atom.of("b", 2),
    ~(Atom.of("a", 5) | ~Atom.of("b", 3, 5)),
    Not(Not(Atom.of("a", 2, 6) & Atom.of("b", 1, 3))),
]


class TestResolveSemantics:
    def test_resolves_strings_and_none(self):
        assert resolve_semantics(None) is MissingSemantics.IS_MATCH
        assert resolve_semantics("is_match") is MissingSemantics.IS_MATCH
        assert resolve_semantics("not_match") is MissingSemantics.NOT_MATCH
        assert resolve_semantics("both") is BOTH
        assert resolve_semantics(BOTH) is BOTH

    def test_rejects_unknown(self):
        with pytest.raises(QueryError, match="unknown semantics"):
            resolve_semantics("sometimes")

    def test_opposite_swaps(self):
        assert (
            MissingSemantics.IS_MATCH.opposite is MissingSemantics.NOT_MATCH
        )
        assert (
            MissingSemantics.NOT_MATCH.opposite is MissingSemantics.IS_MATCH
        )
        assert BOTH.opposite is BOTH

    def test_bounds_fix_the_arity(self):
        for single in MissingSemantics:
            assert single.bounds == (single,)
        # Narrowest bound first, widest last.
        assert BOTH.bounds == (
            MissingSemantics.NOT_MATCH, MissingSemantics.IS_MATCH,
        )


class TestNotBugRegression:
    """The headline fix: NOT swaps the bounds in every evaluator.

    A row with a missing value on the negated attribute possibly satisfies
    both ``p`` and ``not p`` — it must appear in the IS_MATCH answer of
    ``not p`` and never in the NOT_MATCH answer.  The pre-fix behavior
    (complement within one semantics) did exactly the opposite.
    """

    def _missing_rows(self, table):
        return np.asarray(table.missing_mask("a"))

    def test_oracle_mask(self, table):
        predicate = Not(Atom.of("a", 2, 6))
        missing = self._missing_rows(table)
        is_match = evaluate_predicate_mask(
            table, predicate, MissingSemantics.IS_MATCH
        )
        not_match = evaluate_predicate_mask(
            table, predicate, MissingSemantics.NOT_MATCH
        )
        assert np.all(is_match[missing])
        assert not np.any(not_match[missing])

    @pytest.mark.parametrize("cls", BITMAP_CLASSES)
    def test_bitmap_executors(self, table, cls):
        index = cls(table, codec="wah")
        missing = self._missing_rows(table)
        predicate = Not(Atom.of("a", 2, 6))
        is_match = np.zeros(table.num_records, dtype=bool)
        (possible,) = bitmap_bounds(
            index, predicate, MissingSemantics.IS_MATCH
        )
        is_match[possible.to_indices()] = True
        not_match = np.zeros(table.num_records, dtype=bool)
        (certain,) = bitmap_bounds(
            index, predicate, MissingSemantics.NOT_MATCH
        )
        not_match[certain.to_indices()] = True
        assert np.all(is_match[missing])
        assert not np.any(not_match[missing])

    def test_vafile_executor(self, table):
        va = VAFile(table, bits={"a": 2, "b": 2})
        missing = self._missing_rows(table)
        predicate = Not(Atom.of("a", 2, 6))
        (is_match,) = vafile_bounds(va, predicate, MissingSemantics.IS_MATCH)
        (not_match,) = vafile_bounds(
            va, predicate, MissingSemantics.NOT_MATCH
        )
        assert np.all(is_match[missing])
        assert not np.any(not_match[missing])

    @pytest.mark.parametrize("cls", BITMAP_CLASSES)
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_all_executors_match_oracle(self, table, cls, predicate):
        index = cls(table, codec="none")
        va = VAFile(table, bits={"a": 2, "b": 2})
        for semantics in MissingSemantics:
            expect = evaluate_predicate_mask(table, predicate, semantics)
            bitmap_mask = np.zeros(table.num_records, dtype=bool)
            (bound,) = bitmap_bounds(index, predicate, semantics)
            bitmap_mask[bound.to_indices()] = True
            assert np.array_equal(bitmap_mask, expect)
            (va_mask,) = vafile_bounds(va, predicate, semantics)
            assert np.array_equal(va_mask, expect)
            # The public per-index entry points sit on the same walker.
            assert np.array_equal(
                index.execute_predicate_ids(predicate, semantics),
                np.flatnonzero(expect),
            )
            assert np.array_equal(
                va.execute_predicate_ids(predicate, semantics),
                np.flatnonzero(expect),
            )


class TestBothBounds:
    """One-pass (certain, possible) execution matches the projections."""

    def test_oracle_pair_matches_projections(self, table, query):
        certain, possible = evaluate_mask_both(table, query)
        assert np.array_equal(
            certain, evaluate_mask(table, query, MissingSemantics.NOT_MATCH)
        )
        assert np.array_equal(
            possible, evaluate_mask(table, query, MissingSemantics.IS_MATCH)
        )
        assert np.all(possible[certain])  # certain subset of possible

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_oracle_predicate_pair(self, table, predicate):
        certain, possible = evaluate_predicate_mask_both(table, predicate)
        assert np.array_equal(
            certain,
            evaluate_predicate_mask(
                table, predicate, MissingSemantics.NOT_MATCH
            ),
        )
        assert np.array_equal(
            possible,
            evaluate_predicate_mask(
                table, predicate, MissingSemantics.IS_MATCH
            ),
        )

    @pytest.mark.parametrize("cls", BITMAP_CLASSES)
    @pytest.mark.parametrize("codec", ["none", "wah", "bbc"])
    def test_bitmap_execute_both(self, table, query, cls, codec):
        index = cls(table, codec=codec)
        certain, possible = index.execute_both(query)
        assert np.array_equal(
            certain.to_indices(),
            index.execute_ids(query, MissingSemantics.NOT_MATCH),
        )
        assert np.array_equal(
            possible.to_indices(),
            index.execute_ids(query, MissingSemantics.IS_MATCH),
        )

    @pytest.mark.parametrize("cls", BITMAP_CLASSES)
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_bitmap_predicate_both(self, table, cls, predicate):
        index = cls(table, codec="wah")
        certain, possible = bitmap_bounds(index, predicate, BOTH)
        (single_certain,) = bitmap_bounds(
            index, predicate, MissingSemantics.NOT_MATCH
        )
        (single_possible,) = bitmap_bounds(
            index, predicate, MissingSemantics.IS_MATCH
        )
        assert np.array_equal(
            certain.to_indices(), single_certain.to_indices()
        )
        assert np.array_equal(
            possible.to_indices(), single_possible.to_indices()
        )
        pair = index.execute_predicate_ids_both(predicate)
        assert np.array_equal(pair[0], certain.to_indices())
        assert np.array_equal(pair[1], possible.to_indices())

    def test_vafile_both(self, table, query):
        va = VAFile(table, bits={"a": 3, "b": 2})
        certain, possible = va.execute_ids_both(query)
        assert np.array_equal(
            certain, va.execute_ids(query, MissingSemantics.NOT_MATCH)
        )
        assert np.array_equal(
            possible, va.execute_ids(query, MissingSemantics.IS_MATCH)
        )
        c_mask, p_mask = vafile_bounds(va, PREDICATES[1], BOTH)
        (single_certain,) = vafile_bounds(
            va, PREDICATES[1], MissingSemantics.NOT_MATCH
        )
        (single_possible,) = vafile_bounds(
            va, PREDICATES[1], MissingSemantics.IS_MATCH
        )
        assert np.array_equal(c_mask, single_certain)
        assert np.array_equal(p_mask, single_possible)
        pair = va.execute_predicate_ids_both(PREDICATES[1])
        assert np.array_equal(pair[0], np.flatnonzero(c_mask))
        assert np.array_equal(pair[1], np.flatnonzero(p_mask))


class TestWalker:
    """``evaluate_tree`` itself: arity, element-wise combinators, the NOT rule.

    Driven through a recording leaf over fixed masks, so every assertion is
    about the walker and none about an access method.
    """

    CERTAIN = {
        "a": np.array([1, 1, 0, 0, 0, 0], dtype=bool),
        "b": np.array([1, 0, 1, 0, 0, 0], dtype=bool),
    }
    POSSIBLE = {
        "a": np.array([1, 1, 1, 1, 0, 0], dtype=bool),
        "b": np.array([1, 0, 1, 0, 1, 0], dtype=bool),
    }

    def walk(self, predicate, semantics):
        calls = []

        def leaf(atom, leaf_semantics):
            calls.append((atom.attribute, leaf_semantics))
            by_bound = {
                MissingSemantics.NOT_MATCH: self.CERTAIN,
                MissingSemantics.IS_MATCH: self.POSSIBLE,
            }
            return [
                by_bound[bound][atom.attribute]
                for bound in leaf_semantics.bounds
            ]

        return evaluate_tree(predicate, semantics, leaf), calls

    @pytest.mark.parametrize("semantics", [*MissingSemantics, BOTH])
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_arity_follows_the_semantics(self, predicate, semantics):
        bounds, _ = self.walk(predicate, semantics)
        assert isinstance(bounds, tuple)
        assert len(bounds) == len(semantics.bounds)

    def test_and_or_combine_element_wise(self):
        a, b = Atom.of("a", 1), Atom.of("b", 1)
        (certain, possible), calls = self.walk(a & b, BOTH)
        assert np.array_equal(certain, self.CERTAIN["a"] & self.CERTAIN["b"])
        assert np.array_equal(
            possible, self.POSSIBLE["a"] & self.POSSIBLE["b"]
        )
        assert calls == [("a", BOTH), ("b", BOTH)]  # each atom once
        (certain, possible), _ = self.walk(a | b, BOTH)
        assert np.array_equal(certain, self.CERTAIN["a"] | self.CERTAIN["b"])
        assert np.array_equal(
            possible, self.POSSIBLE["a"] | self.POSSIBLE["b"]
        )

    def test_not_at_arity_one_evaluates_the_opposite_bound(self):
        atom = Atom.of("a", 1)
        (certain,), calls = self.walk(Not(atom), MissingSemantics.NOT_MATCH)
        assert calls == [("a", MissingSemantics.IS_MATCH)]
        assert np.array_equal(certain, ~self.POSSIBLE["a"])
        (possible,), calls = self.walk(Not(atom), MissingSemantics.IS_MATCH)
        assert calls == [("a", MissingSemantics.NOT_MATCH)]
        assert np.array_equal(possible, ~self.CERTAIN["a"])

    def test_not_at_arity_two_complements_and_swaps(self):
        (certain, possible), calls = self.walk(Not(Atom.of("a", 1)), BOTH)
        assert calls == [("a", BOTH)]  # BOTH is its own opposite
        assert np.array_equal(certain, ~self.POSSIBLE["a"])
        assert np.array_equal(possible, ~self.CERTAIN["a"])

    @pytest.mark.parametrize("semantics", [*MissingSemantics, BOTH])
    def test_nested_not_is_the_identity(self, semantics):
        atom = Atom.of("a", 1)
        plain, _ = self.walk(atom, semantics)
        doubled, calls = self.walk(Not(Not(atom)), semantics)
        assert calls == [("a", semantics)]  # two swaps cancel
        for want, got in zip(plain, doubled, strict=True):
            assert np.array_equal(want, got)
        tripled, calls = self.walk(Not(Not(Not(atom))), semantics)
        assert calls == [("a", semantics.opposite)]
        single, _ = self.walk(Not(atom), semantics)
        for want, got in zip(single, tripled, strict=True):
            assert np.array_equal(want, got)

    def test_reference_evaluators_do_not_use_the_walker(self):
        # The NOT bug survived because oracle and indexes shared a rule;
        # the references must stay independent of the walker they check.
        for reference in (
            evaluate_predicate_mask,
            evaluate_predicate_mask_both,
            evaluate_predicate,
            evaluate_predicate_both,
        ):
            assert reference.__module__ == boolean.__name__
            assert "evaluate_tree" not in inspect.getsource(reference)
        source = inspect.getsource(ground_truth)
        assert "evaluate_tree" not in source
        assert "repro.query.boolean" not in source
        assert not hasattr(ground_truth, "evaluate_tree")


TIERS = ("index", "engine", "sharded-sequential")
ACCESS_METHODS = ("bre", "bee", "vafile", "scan")


@pytest.mark.parametrize("semantics", ["is_match", "not_match", "both"])
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("access", ACCESS_METHODS)
def test_every_tier_matches_ground_truth(table, query, semantics, tier, access):
    """One path: every semantics x tier x access method, same id arrays."""
    semantics = resolve_semantics(semantics)
    if semantics is BOTH:
        masks = evaluate_mask_both(table, query)
    else:
        masks = (evaluate_mask(table, query, semantics),)
    expected = [np.flatnonzero(mask) for mask in masks]
    using = None if access == "scan" else access

    def attach(db):
        if using is not None:
            db.create_index(using, using)
        return db

    if tier == "index":
        if using is None:
            scan = SequentialScan(table)
            got = [scan.execute_ids(query, b) for b in semantics.bounds]
        else:
            index = attach(IncompleteDatabase(table)).get_index(using).index
            got = index.execute_bound_ids(query, semantics)
    elif tier == "engine":
        report = attach(IncompleteDatabase(table)).execute(
            query, semantics, using=using
        )
        got = report.bound_ids
    else:
        with ShardedDatabase(table, num_shards=3, executor="sequential") as db:
            report = attach(db).execute(query, semantics, using=using)
        got = report.bound_ids
        assert report.kind == ("scan" if using is None else using)
    assert len(got) == len(expected)
    for want, ids in zip(expected, got):
        assert np.array_equal(want, ids)


class TestEngineBoth:
    @pytest.fixture
    def db(self, table):
        db = IncompleteDatabase(table)
        db.create_index("bee", "bee")
        return db

    def test_execute_returns_pair_report(self, db, table, query):
        report = db.execute(query, "both")
        assert len(report.bound_ids) == 2
        certain, possible = evaluate_mask_both(table, query)
        assert np.array_equal(report.certain_ids, np.flatnonzero(certain))
        assert np.array_equal(report.possible_ids, np.flatnonzero(possible))
        assert set(report.possible_only_ids) == (
            set(report.possible_ids.tolist())
            - set(report.certain_ids.tolist())
        )

    def test_count_returns_pair(self, db, query):
        certain, possible = db.count(query, BOTH)
        report = db.execute(query, BOTH)
        assert (certain, possible) == (
            report.num_certain, report.num_possible,
        )
        assert certain <= possible

    def test_batch_both_matches_single(self, db, query):
        other = RangeQuery.from_bounds({"a": (1, 4)})
        reports = db.execute_batch([query, other, query], semantics="both")
        for q, report in zip([query, other, query], reports):
            single = db.execute(q, BOTH)
            assert np.array_equal(report.certain_ids, single.certain_ids)
            assert np.array_equal(report.possible_ids, single.possible_ids)

    def test_query_predicate_both(self, db, table):
        predicate = PREDICATES[2]
        report = db.query_predicate(predicate, "both")
        assert len(report.bound_ids) == 2
        certain, possible = evaluate_predicate_mask_both(table, predicate)
        assert np.array_equal(report.certain_ids, np.flatnonzero(certain))
        assert np.array_equal(report.possible_ids, np.flatnonzero(possible))

    def test_explain_shows_pair_estimate(self, db, query):
        text = db.explain(query, "both")
        assert "certain" in text and "possible" in text
        assert "superset bound" in text

    def test_fetch_rejects_both(self, db, query):
        with pytest.raises(QueryError, match="single semantics"):
            db.fetch(query, "both")

    def test_classic_answer_between_bounds(self, db, table, query):
        # The paper's classic two-valued answers bracket: certain (missing
        # never matches) <= any fixed completion <= possible.
        report = db.execute(query, BOTH)
        classic = set(
            db.execute(query, MissingSemantics.NOT_MATCH).record_ids.tolist()
        )
        assert set(report.certain_ids.tolist()) <= classic
        assert classic <= set(report.possible_ids.tolist())


class TestEngineRanked:
    @pytest.fixture
    def db(self, table):
        db = IncompleteDatabase(table)
        db.create_index("bre", "bre")
        return db

    def test_ranked_orders_by_probability(self, db, query):
        report = db.execute_ranked(query)
        assert isinstance(report, RankedReport)
        probs = report.probabilities
        assert np.all(probs[: report.num_certain] == 1.0)
        tail = probs[report.num_certain :]
        assert np.all(np.diff(tail) <= 1e-12)
        both = db.execute(query, BOTH)
        assert set(report.record_ids.tolist()) == set(
            both.possible_ids.tolist()
        )

    def test_ranked_probability_formula(self, db, table, query):
        report = db.execute_ranked(query)
        stats = db.statistics
        position = {
            int(rid): i for i, rid in enumerate(report.record_ids)
        }
        both = db.execute(query, BOTH)
        for rid in both.possible_only_ids[:20]:
            expect = 1.0
            for name, interval in query.items():
                if table.column(name)[rid] == 0:
                    expect *= stats.attribute(
                        name
                    ).present_interval_probability(interval)
            assert report.probabilities[position[int(rid)]] == pytest.approx(
                expect
            )

    def test_threshold_and_limit(self, db, query):
        full = db.execute_ranked(query)
        some = db.execute_ranked(query, threshold=0.5)
        assert np.all(some.probabilities >= 0.5)
        only_certain = db.execute_ranked(query, threshold=1.0)
        assert only_certain.num_matches == only_certain.num_certain
        capped = db.execute_ranked(query, limit=3)
        assert capped.num_matches == min(3, full.num_matches)

    def test_invalid_arguments_rejected(self, db, query):
        with pytest.raises(QueryError, match="threshold"):
            db.execute_ranked(query, threshold=1.5)
        with pytest.raises(QueryError, match="limit"):
            db.execute_ranked(query, limit=-1)


class TestShardedBoth:
    @pytest.fixture
    def pair(self, table):
        ref = IncompleteDatabase(table)
        ref.create_index("bee", "bee")
        sharded = ShardedDatabase(table, num_shards=3, executor="sequential")
        sharded.create_index("bee", "bee")
        yield ref, sharded
        sharded.close()

    def test_sharded_matches_unsharded(self, pair, query):
        ref, sharded = pair
        expect = ref.execute(query, BOTH)
        report = sharded.execute(query, "both")
        assert len(report.bound_ids) == 2
        assert np.array_equal(report.certain_ids, expect.certain_ids)
        assert np.array_equal(report.possible_ids, expect.possible_ids)
        assert sharded.count(query, BOTH) == (
            expect.num_certain, expect.num_possible,
        )

    def test_sharded_batch_and_predicate(self, pair, query):
        ref, sharded = pair
        reports = sharded.execute_batch([query, query], semantics=BOTH)
        expect = ref.execute(query, BOTH)
        for report in reports:
            assert np.array_equal(report.certain_ids, expect.certain_ids)
            assert np.array_equal(report.possible_ids, expect.possible_ids)
        predicate = PREDICATES[2]
        got = sharded.query_predicate(predicate, BOTH)
        want = ref.query_predicate(predicate, BOTH)
        assert np.array_equal(got.certain_ids, want.certain_ids)
        assert np.array_equal(got.possible_ids, want.possible_ids)

    def test_sharded_batch_shares_sub_results(self, pair):
        # BOTH batches ride the same ShardTask, so each shard's SubResultCache
        # serves the interval the workload repeats.
        ref, sharded = pair
        queries = [
            RangeQuery.from_bounds({"a": (3, 9), "b": (lo, 4)})
            for lo in (1, 2, 3, 1, 2, 3)
        ]
        reports = sharded.execute_batch(queries, "both")
        assert sharded.cache_stats().hits > 0
        for q, report in zip(queries, reports):
            assert len(report.bound_ids) == 2
            for other in (sharded.execute(q, BOTH), ref.execute(q, BOTH)):
                assert np.array_equal(report.certain_ids, other.certain_ids)
                assert np.array_equal(report.possible_ids, other.possible_ids)

    def test_sharded_ranked_matches_unsharded(self, pair, query):
        ref, sharded = pair
        mine = sharded.execute_ranked(query, threshold=0.1, limit=40)
        theirs = ref.execute_ranked(query, threshold=0.1, limit=40)
        assert np.array_equal(mine.record_ids, theirs.record_ids)
        assert np.allclose(mine.probabilities, theirs.probabilities)
        assert mine.num_certain == theirs.num_certain

    def test_sharded_fetch_rejects_both(self, pair, query):
        _, sharded = pair
        with pytest.raises(QueryError, match="single semantics"):
            sharded.fetch(query, "both")


# -- property: random trees x both semantics x executors x backends ----------


@st.composite
def predicate_trees(draw, depth: int = 0):
    if depth >= 3 or draw(st.booleans()):
        attribute = draw(st.sampled_from(["a", "b", "c"]))
        cardinality = {"a": 10, "b": 5, "c": 8}[attribute]
        lo = draw(st.integers(min_value=1, max_value=cardinality))
        hi = draw(st.integers(min_value=lo, max_value=cardinality))
        return Atom(attribute, Interval(lo, hi))
    kind = draw(st.sampled_from(["and", "or", "not", "not"]))
    if kind == "not":
        return Not(draw(predicate_trees(depth=depth + 1)))
    children = tuple(
        draw(predicate_trees(depth=depth + 1))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return And(children) if kind == "and" else Or(children)


def _property_table():
    # 'c' is complete: on it the certain and possible bounds must agree.
    return generate_uniform_table(
        300,
        {"a": 10, "b": 5, "c": 8},
        {"a": 0.3, "b": 0.2, "c": 0.0},
        seed=5,
    )


@settings(max_examples=40, deadline=None)
@given(
    predicate=predicate_trees(),
    backend=st.sampled_from(sorted(available_backends())),
)
def test_property_three_valued_consistency(predicate, backend):
    """certain subset of possible; both == two corrected single runs;
    bounds coincide wherever only complete columns are touched."""
    table = _property_table()
    with use_backend(backend):
        index = RangeEncodedBitmapIndex(table, codec="wah")
        va = VAFile(table, bits={"a": 2, "b": 2, "c": 2})
        certain, possible = evaluate_predicate_mask_both(table, predicate)
        # certain subset of possible
        assert np.all(possible[certain])
        # pair == the two corrected single-semantics oracle runs
        assert np.array_equal(
            certain,
            evaluate_predicate_mask(
                table, predicate, MissingSemantics.NOT_MATCH
            ),
        )
        assert np.array_equal(
            possible,
            evaluate_predicate_mask(
                table, predicate, MissingSemantics.IS_MATCH
            ),
        )
        # bitmap and VA-file one-pass executors agree with the oracle pair
        b_certain, b_possible = bitmap_bounds(index, predicate, BOTH)
        assert np.array_equal(b_certain.to_indices(), np.flatnonzero(certain))
        assert np.array_equal(
            b_possible.to_indices(), np.flatnonzero(possible)
        )
        v_certain, v_possible = vafile_bounds(va, predicate, BOTH)
        assert np.array_equal(v_certain, certain)
        assert np.array_equal(v_possible, possible)
        # complete columns admit no uncertainty
        if predicate.attributes() == {"c"}:
            assert np.array_equal(certain, possible)


@settings(max_examples=25, deadline=None)
@given(
    bounds=st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.tuples(
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_property_range_query_both(bounds):
    """Range-query both-mode stays consistent across every encoding."""
    table = _property_table()
    cardinalities = {"a": 10, "b": 5, "c": 8}
    query = RangeQuery.from_bounds(
        {
            name: (lo, min(lo + extra, cardinalities[name]))
            for name, (lo, extra) in bounds.items()
        }
    )
    certain, possible = evaluate_mask_both(table, query)
    assert np.all(possible[certain])
    for cls in BITMAP_CLASSES:
        index = cls(table, codec="none")
        got_c, got_p = index.execute_both(query)
        assert np.array_equal(got_c.to_indices(), np.flatnonzero(certain))
        assert np.array_equal(got_p.to_indices(), np.flatnonzero(possible))
    if set(query.attributes) == {"c"}:
        assert np.array_equal(certain, possible)
