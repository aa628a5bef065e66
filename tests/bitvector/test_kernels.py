"""Kernel backend registry + cross-backend word-identity properties.

The contract of :mod:`repro.bitvector.kernels` is stronger than "same
bits": every registered backend must emit the exact same canonical word
stream for every operation.  That is what makes backend choice a pure
performance knob — equality, hashing, serialization, and the word-based
cost model are all unaffected by it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvector import kernels
from repro.bitvector.bbc import BbcBitVector
from repro.bitvector.wah import (
    FILL_BIT_FLAG,
    FILL_FLAG,
    GROUP_BITS,
    LITERAL_MASK,
    MAX_FILL_GROUPS,
    WahBitVector,
    _Builder,
)
from repro.errors import CorruptIndexError, ReproError

ALL_BACKENDS = kernels.available_backends()

runs = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=80)),
    min_size=0,
    max_size=30,
)


def _bools_from_runs(run_list) -> np.ndarray:
    parts = [np.full(length, bit, dtype=bool) for bit, length in run_list]
    if not parts:
        return np.zeros(0, dtype=bool)
    return np.concatenate(parts)


def _pair_from(run_a, run_b):
    a = _bools_from_runs(run_a)
    b = _bools_from_runs(run_b)
    n = max(len(a), len(b))
    return np.pad(a, (0, n - len(a))), np.pad(b, (0, n - len(b)))


def _per_backend(fn):
    """Run ``fn`` under every registered backend; return {name: result}."""
    out = {}
    for name in ALL_BACKENDS:
        with kernels.use_backend(name):
            out[name] = fn()
    return out


def _assert_identical_words(by_backend: dict) -> None:
    reference = by_backend["python"]
    for name, words in by_backend.items():
        assert words.dtype == np.uint32, name
        assert np.array_equal(words, reference), (
            f"{name} backend words differ from python reference: "
            f"{words.tolist()} != {reference.tolist()}"
        )


class TestRegistry:
    def test_python_and_numpy_always_registered(self):
        assert {"python", "numpy"} <= set(ALL_BACKENDS)

    def test_default_backend_honors_env_or_avoids_python(self):
        forced = os.environ.get(kernels.BACKEND_ENV_VAR, "").strip()
        if forced:
            assert kernels.get_backend().name == forced
        else:
            # The reference loop is opt-in.
            assert kernels.get_backend().name == "numpy"

    def test_set_backend_returns_previous(self):
        previous = kernels.set_backend("python")
        try:
            assert kernels.get_backend().name == "python"
        finally:
            kernels.set_backend(previous)
        assert kernels.get_backend().name == previous

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown bitvector kernel"):
            kernels.set_backend("fortran")

    def test_use_backend_restores_on_exit(self):
        before = kernels.get_backend().name
        with kernels.use_backend("python") as backend:
            assert backend.name == "python"
        assert kernels.get_backend().name == before

    def test_use_backend_restores_on_error(self):
        before = kernels.get_backend().name
        with pytest.raises(RuntimeError):
            with kernels.use_backend("python"):
                raise RuntimeError("boom")
        assert kernels.get_backend().name == before


class TestEnvVarSelection:
    def _import_in_subprocess(self, value: str | None):
        env = dict(os.environ)
        env.pop(kernels.BACKEND_ENV_VAR, None)
        if value is not None:
            env[kernels.BACKEND_ENV_VAR] = value
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        return subprocess.run(
            [sys.executable, "-c",
             "from repro.bitvector import kernels; "
             "print(kernels.get_backend().name)"],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def _default_in_subprocess(self, value: str | None) -> str:
        out = self._import_in_subprocess(value)
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    def test_unregistered_name_fails_the_import(self):
        out = self._import_in_subprocess("numba")
        assert out.returncode != 0
        assert "names an unknown backend" in out.stderr

    def test_env_var_forces_reference_backend(self):
        assert self._default_in_subprocess("python") == "python"

    def test_empty_env_var_means_default(self):
        # CI matrix legs export REPRO_BITVECTOR_BACKEND="" for the
        # non-override combinations; that must not be treated as a name.
        assert self._default_in_subprocess("") == "numpy"
        assert self._default_in_subprocess(None) == "numpy"


@settings(max_examples=100, deadline=None)
@given(runs, runs)
def test_binary_ops_word_identical_across_backends(run_a, run_b):
    a, b = _pair_from(run_a, run_b)
    wa, wb = WahBitVector.from_bools(a), WahBitVector.from_bools(b)
    for op in ("__and__", "__or__", "__xor__", "andnot"):
        _assert_identical_words(
            _per_backend(lambda op=op: getattr(wa, op)(wb).words)
        )


@settings(max_examples=100, deadline=None)
@given(runs)
def test_not_and_compress_word_identical_across_backends(run_list):
    bools = _bools_from_runs(run_list)
    _assert_identical_words(
        _per_backend(lambda: WahBitVector.from_bools(bools).words)
    )
    wah = WahBitVector.from_bools(bools)
    _assert_identical_words(_per_backend(lambda: (~wah).words))


@settings(max_examples=60, deadline=None)
@given(st.lists(runs, min_size=3, max_size=6))
def test_or_many_word_identical_across_backends(run_lists):
    n = max((sum(r for _, r in rl) for rl in run_lists), default=0)
    operands = [
        WahBitVector.from_bools(np.pad(_bools_from_runs(rl),
                                       (0, n - len(_bools_from_runs(rl)))))
        for rl in run_lists
    ]
    _assert_identical_words(
        _per_backend(lambda: WahBitVector.or_many(operands).words)
    )


@settings(max_examples=100, deadline=None)
@given(runs)
def test_count_identical_across_backends(run_list):
    bools = _bools_from_runs(run_list)
    wah = WahBitVector.from_bools(bools)
    counts = _per_backend(wah.count)
    assert set(counts.values()) == {int(bools.sum())}


@settings(max_examples=100, deadline=None)
@given(runs)
def test_bbc_streams_byte_identical_across_backends(run_list):
    bools = _bools_from_runs(run_list)
    streams = _per_backend(lambda: BbcBitVector.from_bools(bools).data)
    reference = streams["python"]
    for name, data in streams.items():
        assert np.array_equal(data, reference), name
    # ... and every backend decodes the reference stream identically.
    vec = BbcBitVector(len(bools), reference)
    decoded = _per_backend(lambda: vec.decompress().words.copy())
    for name, words in decoded.items():
        assert np.array_equal(words, decoded["python"]), name


class TestFillBoundaries:
    """MAX_FILL_GROUPS edges, exercised at word level (no group expansion)."""

    def _giant(self, ngroups: int, bit: int) -> WahBitVector:
        builder = _Builder()
        builder.append_fill(ngroups, bit)
        return WahBitVector(ngroups * GROUP_BITS, builder.words)

    @pytest.mark.parametrize("ngroups", [
        MAX_FILL_GROUPS - 1, MAX_FILL_GROUPS, MAX_FILL_GROUPS + 1,
        2 * MAX_FILL_GROUPS, 2 * MAX_FILL_GROUPS + 7,
    ])
    def test_giant_fill_runs_encode_identically(self, ngroups):
        # The numpy encoder's run core and the python reference builder
        # split over-long fills the same way, next to literals and to each
        # other.
        values = np.array([0b101, 0, LITERAL_MASK, 0b11], dtype=np.uint32)
        lengths = np.array([1, ngroups, ngroups, 1], dtype=np.int64)
        builder = _Builder()
        builder.append_literal(0b101)
        builder.append_fill(ngroups, 0)
        builder.append_fill(ngroups, 1)
        builder.append_literal(0b11)
        words = kernels._encode_runs(values, lengths)
        assert words.tolist() == builder.words
        assert kernels.wah_run_words(values, lengths) == len(words)

    def test_giant_fill_split_is_canonical(self):
        wah = self._giant(2 * MAX_FILL_GROUPS + 7, 1)
        assert wah.words.tolist() == [
            FILL_FLAG | FILL_BIT_FLAG | MAX_FILL_GROUPS,
            FILL_FLAG | FILL_BIT_FLAG | MAX_FILL_GROUPS,
            FILL_FLAG | FILL_BIT_FLAG | 7,
        ]

    def test_giant_fill_count_identical(self):
        ones = self._giant(MAX_FILL_GROUPS + 3, 1)
        counts = _per_backend(ones.count)
        assert set(counts.values()) == {(MAX_FILL_GROUPS + 3) * GROUP_BITS}

    def test_literal_next_to_max_fill(self):
        builder = _Builder()
        builder.append_fill(MAX_FILL_GROUPS, 0)
        builder.append_literal(0b101)
        nbits = (MAX_FILL_GROUPS + 1) * GROUP_BITS
        wah = WahBitVector(nbits, builder.words)
        values = np.array([0, 0b101], dtype=np.uint32)
        lengths = np.array([MAX_FILL_GROUPS, 1], dtype=np.int64)
        assert kernels._encode_runs(values, lengths).tolist() == builder.words
        assert wah.words32() == 2
        assert set(_per_backend(wah.count).values()) == {2}


class TestEdgeCases:
    @pytest.mark.parametrize("make", [
        lambda: WahBitVector.zeros(0),
        lambda: WahBitVector.zeros(31),
        lambda: WahBitVector.ones(31),
        lambda: WahBitVector.ones(40),
        lambda: WahBitVector.zeros(31 * 5000),
        lambda: WahBitVector.ones(31 * 5000),
    ])
    def test_constant_vector_ops_identical(self, make):
        vec = make()
        _assert_identical_words(_per_backend(lambda: (vec ^ vec).words))
        _assert_identical_words(_per_backend(lambda: (~vec).words))

    def test_empty_vector_round_trips_on_all_backends(self):
        for name in ALL_BACKENDS:
            with kernels.use_backend(name):
                vec = WahBitVector.zeros(0)
                assert vec.words.tolist() == []
                assert vec.count() == 0
                assert vec.decompress().nbits == 0

    def test_zero_length_fill_rejected_under_all_backends(self):
        for name in ALL_BACKENDS:
            with kernels.use_backend(name):
                with pytest.raises(CorruptIndexError):
                    WahBitVector(31 * 2, [FILL_FLAG | 2, FILL_FLAG | 0])

    def test_words_are_read_only(self):
        wah = WahBitVector.ones(100)
        assert not wah.words.flags.writeable
        with pytest.raises(ValueError):
            wah.words[0] = 0

    def test_construction_from_ndarray_matches_list(self):
        words = [FILL_FLAG | 3, 0b1011]
        from_list = WahBitVector(31 * 4, words)
        from_array = WahBitVector(31 * 4, np.array(words, dtype=np.uint32))
        assert from_list == from_array
        assert hash(from_list) == hash(from_array)


class TestQueryLevelIdentity:
    """End-to-end: query answers must not depend on the backend."""

    def test_engine_results_identical_across_backends(self, rng):
        from repro.core.engine import IncompleteDatabase
        from repro.dataset.synthetic import generate_uniform_table
        from repro.query.model import MissingSemantics, RangeQuery

        table = generate_uniform_table(
            2_000, {"a": 20, "b": 10}, {"a": 0.1, "b": 0.2}, seed=9
        )
        queries = [
            RangeQuery.from_bounds({"a": (3, 9), "b": (2, 5)}),
            RangeQuery.from_bounds({"a": (1, 20)}),
            RangeQuery.from_bounds({"b": (7, 7)}),
        ]
        answers = {}
        for name in ALL_BACKENDS:
            with kernels.use_backend(name):
                db = IncompleteDatabase(table)
                db.create_index("ix", "bre")
                answers[name] = [
                    db.execute(q, semantics).record_ids
                    for q in queries
                    for semantics in MissingSemantics
                ]
        for name, got in answers.items():
            for ours, ref in zip(got, answers["python"]):
                assert np.array_equal(ours, ref), name
