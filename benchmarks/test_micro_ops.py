"""Micro-benchmarks: bitvector operations and index builds.

These use pytest-benchmark's statistics properly (many rounds) since the
operations are microseconds-scale; they track the primitives every
experiment above is built from.
"""

import operator

import numpy as np
import pytest

from repro.bitmap.equality import EqualityEncodedBitmapIndex
from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.bitvector.wah import WahBitVector
from repro.dataset.synthetic import generate_uniform_table
from repro.query.model import MissingSemantics, RangeQuery
from repro.vafile.vafile import VAFile


@pytest.fixture(scope="module")
def sparse_pair():
    rng = np.random.default_rng(1)
    n = 100_000
    return (
        WahBitVector.from_bools(rng.random(n) < 0.01),
        WahBitVector.from_bools(rng.random(n) < 0.01),
    )


@pytest.fixture(scope="module")
def dense_pair():
    rng = np.random.default_rng(2)
    n = 100_000
    return (
        WahBitVector.from_bools(rng.random(n) < 0.5),
        WahBitVector.from_bools(rng.random(n) < 0.5),
    )


def _cold(pair):
    """Each round's operands: copies that have not decoded their stream.

    A stored vector keeps its group array after the first decode, so
    timing the same pair again would time a warm ufunc, not decode + op.
    """
    return tuple(WahBitVector._from_words(v.nbits, v.words) for v in pair), {}


def test_micro_wah_and_sparse(benchmark, sparse_pair):
    benchmark.pedantic(
        operator.and_, setup=lambda: _cold(sparse_pair), rounds=200
    )


def test_micro_wah_and_dense(benchmark, dense_pair):
    benchmark.pedantic(
        operator.and_, setup=lambda: _cold(dense_pair), rounds=200
    )


def test_micro_wah_or_dense(benchmark, dense_pair):
    benchmark.pedantic(
        operator.or_, setup=lambda: _cold(dense_pair), rounds=200
    )


def test_micro_wah_compress(benchmark):
    rng = np.random.default_rng(3)
    bools = rng.random(100_000) < 0.05
    benchmark(WahBitVector.from_bools, bools)


@pytest.fixture(scope="module")
def query_table():
    return generate_uniform_table(
        50_000, {"a": 20, "b": 20}, {"a": 0.2, "b": 0.2}, seed=4
    )


def test_micro_build_bee(benchmark, query_table):
    benchmark.pedantic(
        EqualityEncodedBitmapIndex, args=(query_table,),
        kwargs={"codec": "wah"}, rounds=3, iterations=1,
    )


def test_micro_build_bre(benchmark, query_table):
    benchmark.pedantic(
        RangeEncodedBitmapIndex, args=(query_table,),
        kwargs={"codec": "wah"}, rounds=3, iterations=1,
    )


def test_micro_build_vafile(benchmark, query_table):
    benchmark.pedantic(VAFile, args=(query_table,), rounds=3, iterations=1)


@pytest.fixture(scope="module")
def built_indexes(query_table):
    return (
        EqualityEncodedBitmapIndex(query_table, codec="wah"),
        RangeEncodedBitmapIndex(query_table, codec="wah"),
        VAFile(query_table),
    )


_QUERY = RangeQuery.from_bounds({"a": (3, 8), "b": (10, 15)})


def test_micro_query_bee(benchmark, built_indexes):
    bee, _, _ = built_indexes
    benchmark(bee.execute_ids, _QUERY, MissingSemantics.IS_MATCH)


def test_micro_query_bre(benchmark, built_indexes):
    _, bre, _ = built_indexes
    benchmark(bre.execute_ids, _QUERY, MissingSemantics.IS_MATCH)


def test_micro_query_vafile(benchmark, built_indexes):
    _, _, va = built_indexes
    benchmark(va.execute_ids, _QUERY, MissingSemantics.IS_MATCH)
