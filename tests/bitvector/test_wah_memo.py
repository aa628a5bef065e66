"""A stored WAH vector decodes once and keeps its group array.

Vectors built from data, loaded from a file or unpickled keep the group
array their first decode builds, and every later operation reads it
directly.  The stream stays the storage form: nothing that reports a size
or an identity may tell a memoised vector from a fresh one, on any backend.
"""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.bitmap.range_encoded import RangeEncodedBitmapIndex
from repro.bitvector import kernels
from repro.bitvector.wah import GROUP_BITS, WahBitVector
from repro.core.cache import SubResultCache
from repro.core.engine import IncompleteDatabase
from repro.dataset.synthetic import generate_uniform_table
from repro.observability import use_registry
from repro.query.model import MissingSemantics, RangeQuery
from repro.storage.serialize import dump_bitmap_index, _vector_payload


@pytest.fixture(params=kernels.available_backends())
def backend(request):
    with kernels.use_backend(request.param):
        yield request.param


def _bools(seed: int) -> np.ndarray:
    """Sparse literals around a 0-fill and a 1-fill, with a partial tail."""
    bools = np.random.default_rng(seed).random(GROUP_BITS * 200 + 11) < 0.05
    bools[: GROUP_BITS * 40] = False
    bools[GROUP_BITS * 60 : GROUP_BITS * 90] = True
    return bools


def test_memoised_vector_is_indistinguishable(backend):
    bools = _bools(1)
    fresh, memo = WahBitVector.from_bools(bools), WahBitVector.from_bools(bools)
    assert np.array_equal(memo.to_indices(), np.flatnonzero(bools))
    assert memo._groups is not None and fresh._groups is None
    assert np.array_equal(memo.words, fresh.words)
    assert memo.words32() == fresh.words32() == len(fresh.words)
    assert memo.nbytes() == fresh.nbytes()
    assert memo == fresh and hash(memo) == hash(fresh)
    assert pickle.dumps(memo) == pickle.dumps(fresh)
    assert _vector_payload(memo) == _vector_payload(fresh)
    assert memo.count() == fresh.count() == int(bools.sum())
    assert pickle.loads(pickle.dumps(memo))._groups is None  # stream only
    with pytest.raises(ValueError):
        memo._groups[0] = 0  # shared by every later reader: read-only


def test_saved_index_bytes_do_not_move_after_queries(backend):
    table = generate_uniform_table(
        2000, {"a": 12, "b": 6}, {"a": 0.2, "b": 0.1}, seed=3
    )
    index = RangeEncodedBitmapIndex(table, codec="wah")
    before, size = dump_bitmap_index(index), index.nbytes()
    query = RangeQuery.from_bounds({"a": (3, 9), "b": (2, 4)})
    answers = [index.execute_ids(query, sem) for sem in MissingSemantics]
    assert dump_bitmap_index(index) == before
    assert index.nbytes() == size
    again = [index.execute_ids(query, sem) for sem in MissingSemantics]
    assert all(map(np.array_equal, answers, again))


def test_first_decode_race_gives_identical_answers(backend):
    left, right = _bools(2), _bools(3)
    want = {
        "and": np.flatnonzero(left & right),
        "not": np.flatnonzero(~left),
        "or": np.flatnonzero(left | right),
        "ids": np.flatnonzero(left),
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            a, b = WahBitVector.from_bools(left), WahBitVector.from_bools(right)
            got: list[tuple[str, np.ndarray]] = []
            readers = {
                "and": lambda: (a & b).to_indices(),
                "not": lambda: (~a).to_indices(),
                "or": lambda: WahBitVector.or_many([a, b, a]).to_indices(),
                "ids": a.to_indices,
            }
            threads = [
                threading.Thread(
                    target=lambda name=name: got.append((name, readers[name]()))
                )
                for name in list(readers) * 2
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(got) == len(threads)
            for name, ids in got:
                assert np.array_equal(ids, want[name]), name
            assert np.array_equal(a.to_indices(), want["ids"])
    finally:
        sys.setswitchinterval(interval)


def test_cached_result_does_not_regrow(backend):
    a, b = WahBitVector.from_bools(_bools(4)), WahBitVector.from_bools(_bools(5))
    cache = SubResultCache()
    cache.put("k", a | b)  # nbytes() builds the stream, dropping the groups
    cached = cache.get("k")
    size = cache.nbytes
    for _ in range(3):
        (cached & a).count()
        (~cached).to_indices()
        cached.to_indices()
    assert cached._groups is None
    assert cache.nbytes == size == cached.words.nbytes


@pytest.mark.parametrize("kind", ["bee", "bre"])
def test_second_pass_decodes_nothing(backend, kind):
    table = generate_uniform_table(
        3000, {"a": 20, "b": 8}, {"a": 0.2, "b": 0.1}, seed=9
    )
    db = IncompleteDatabase(table)
    db.create_index("ix", kind)
    queries = [{"a": (3, 14), "b": (2, 5)}, {"a": (1, 4)}, {"b": (6, 8)}]

    def run():
        with use_registry() as reg:
            ids = [
                db.execute(query, semantics=sem, using="ix").record_ids
                for query in queries
                for sem in ("is_match", "not_match")
            ]
        return reg.snapshot().counters, ids

    first, first_ids = run()
    second, second_ids = run()
    assert first["wah.words_decoded"] > 0
    assert second.get("wah.words_decoded", 0) == 0
    assert second["wah.ops"] == first["wah.ops"]
    assert second["bitmap.words_processed"] == first["bitmap.words_processed"]
    assert all(map(np.array_equal, first_ids, second_ids))
