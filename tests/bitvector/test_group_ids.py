"""The ids kernel: sorted 1-bit positions straight from a group array.

``group_ids`` unpacks only the nonzero groups of a sparse array and every
group of a dense one; either way it must equal ``flatnonzero(to_bools())``.
"""

import numpy as np
import pytest

from repro.bitvector import wah
from repro.bitvector.wah import GROUP_BITS, WahBitVector, group_ids


def _vector(bools) -> WahBitVector:
    return WahBitVector.from_bools(np.asarray(bools, dtype=bool))


def _share(vec: WahBitVector) -> float:
    groups = vec._group_array()
    return np.count_nonzero(groups) / max(1, len(groups))


def _check(vec: WahBitVector) -> None:
    want = np.flatnonzero(vec.to_bools())
    got = group_ids(vec._group_array(), vec.nbits)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(vec.to_indices(), want)


@pytest.mark.parametrize("nbits", [0, 1, 30, 31, 32, 62, 100, 31 * 50 + 7])
def test_empty_full_and_partial_tail(nbits):
    _check(_vector(np.zeros(nbits)))
    _check(_vector(np.ones(nbits)))
    _check(WahBitVector.ones(nbits))
    if nbits:
        tail = np.zeros(nbits)
        tail[-1] = 1  # the last bit, in a partial group unless nbits % 31 == 0
        _check(_vector(tail))


@pytest.mark.parametrize("density", [0.0005, 0.003, 0.02, 0.05, 0.2, 0.9])
def test_densities_on_both_sides_of_the_crossover(density):
    rng = np.random.default_rng(7)
    vec = _vector(rng.random(31 * 400 + 19) < density)
    _check(vec)
    # Every listed density is clearly on one side of the crossover.
    assert abs(_share(vec) - wah.SPARSE_GROUP_SHARE) > 0.05


def test_each_branch_is_taken(monkeypatch):
    rng = np.random.default_rng(3)
    sparse = _vector(rng.random(31 * 200 + 5) < 0.002)
    dense = _vector(rng.random(31 * 200 + 5) < 0.5)
    assert _share(sparse) < wah.SPARSE_GROUP_SHARE < _share(dense)
    for share in (0.0, 1.0):  # force one branch, then the other
        monkeypatch.setattr(wah, "SPARSE_GROUP_SHARE", share)
        _check(sparse)
        _check(dense)


def test_clustered_runs():
    bools = np.zeros(31 * 300 + 11, dtype=bool)
    bools[100:2000] = True  # whole ones-groups between partial ones
    bools[5000:5003] = True
    bools[-20:] = True
    _check(_vector(bools))


@pytest.mark.parametrize("first, stop", [(0, 3), (2, 9), (5, 14), (0, 14)])
def test_window_views(first, stop):
    rng = np.random.default_rng(first * 100 + stop)
    for density in (0.01, 0.6):
        vec = _vector(rng.random(31 * 13 + 9) < density)
        window = vec.window(first, stop)
        groups = window._group_array()
        assert groups.base is not None  # a view of the stored array
        want = np.flatnonzero(vec.to_bools()[first * GROUP_BITS:][: window.nbits])
        assert np.array_equal(group_ids(groups, window.nbits), want)
        assert np.array_equal(window.to_indices(), want)
