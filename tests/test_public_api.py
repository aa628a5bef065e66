"""Sanity checks on the public API surface."""

import subprocess
import sys

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_docstring_quickstart_works(self):
        # The module docstring's example must actually run.
        from repro import (
            AttributeSpec,
            IncompleteDatabase,
            IncompleteTable,
            MissingSemantics,
            Schema,
        )

        schema = Schema(
            [AttributeSpec("age_band", 9), AttributeSpec("income", 100)]
        )
        table = IncompleteTable.from_records(
            schema,
            [
                {"age_band": 3, "income": 42},
                {"age_band": None, "income": 87},
            ],
        )
        db = IncompleteDatabase(table)
        db.create_index("idx", "bre")
        report = db.query({"age_band": (2, 5)}, MissingSemantics.IS_MATCH)
        assert report.record_ids.tolist() == [0, 1]


class TestBuiltOnce:
    """Rows change only through the snapshot writer: an engine and a
    bitmap index are fixed once built, with no in-place mutators."""

    @pytest.mark.parametrize(
        "cls", [repro.IncompleteDatabase, repro.bitmap.BitmapIndex]
    )
    @pytest.mark.parametrize(
        "name", ["append", "delete", "compact", "generation"]
    )
    def test_no_in_place_mutation(self, cls, name):
        assert not hasattr(cls, name)


class TestRemovedSurface:
    """Deleted on purpose, with no alias: the bitmap sub-result cache (a
    cached interval cost more than recomputing it from decoded bitmaps)
    and the per-shard fan-out (segments are read as one engine)."""

    @pytest.mark.parametrize("name", ["SubResultCache"])
    def test_cache_type_is_gone(self, name):
        assert not hasattr(repro, name)
        assert not hasattr(repro.core, name)

    @pytest.mark.parametrize(
        "cls", [repro.IncompleteDatabase, repro.ShardedDatabase]
    )
    @pytest.mark.parametrize("name", ["cache_stats", "invalidate_cache"])
    def test_cache_methods_are_gone(self, cls, name):
        assert not hasattr(cls, name)

    def test_fan_out_is_gone(self):
        import repro.core.engine as engine
        import repro.core.planner as planner
        import repro.shard.executor as executor

        assert not hasattr(engine, "ShardTask")
        assert not hasattr(repro.IncompleteDatabase, "_run_task")
        assert not hasattr(planner, "combine_shard_estimates")
        assert not hasattr(executor.ShardExecutor, "run")


class TestSubpackageExports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.bitvector",
            "repro.bitmap",
            "repro.vafile",
            "repro.dataset",
            "repro.query",
            "repro.baselines",
            "repro.core",
            "repro.experiments",
            "repro.storage",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = __import__(module, fromlist=["__all__"])
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"


class TestExperimentsCli:
    def test_list_experiments(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--list"],
            capture_output=True,
            text=True,
            check=True,
        )
        names = out.stdout.split()
        assert "fig1" in names and "fig5c" in names

    def test_unknown_experiment_rejected(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--only", "fig99"],
            capture_output=True,
            text=True,
        )
        assert out.returncode != 0
        assert "unknown experiments" in out.stderr
