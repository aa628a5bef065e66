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
    cached interval cost more than recomputing it from decoded bitmaps),
    the per-shard fan-out (segments are read as one engine), the kernel
    backend registry (one coder; the reference coder is no backend) and
    the shard-executor handle (it evaluated nothing)."""

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

        assert not hasattr(engine, "ShardTask")
        assert not hasattr(repro.IncompleteDatabase, "_run_task")
        assert not hasattr(planner, "combine_shard_estimates")
        assert not [name for name in repro.shard.__all__ if "Executor" in name]

    @pytest.mark.parametrize(
        "name", ["available_backends", "get_backend", "set_backend", "use_backend"]
    )
    def test_backend_registry_is_gone(self, name):
        import repro.bitvector.kernels as kernels

        assert not hasattr(repro.bitvector, name)
        assert not hasattr(kernels, name)

    def test_one_database_type(self):
        # No query surface split: a database of several segments is an
        # IncompleteDatabase, and its segments are records, not engines.
        import repro.core.engine as engine
        from repro.dataset.synthetic import generate_uniform_table

        assert not hasattr(engine, "_QuerySurface")
        table = generate_uniform_table(300, {"a": 9}, {"a": 0.2}, seed=1)
        db = repro.ShardedDatabase(table, num_shards=2)
        assert isinstance(db, repro.IncompleteDatabase)
        assert type(db).__mro__[1:] == repro.IncompleteDatabase.__mro__
        for segment in db.segments:
            assert not isinstance(segment, repro.IncompleteDatabase)
            assert not hasattr(segment, "_rwlock")
            assert not hasattr(segment, "_plan_memo")

    def test_executor_handle_is_gone(self):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module("repro.shard.executor")
        assert not hasattr(repro.ShardedDatabase, "executor")

    def test_varz_names_no_backend(self):
        from repro.observability.server import TelemetryServer

        server = TelemetryServer()
        try:
            assert "bitvector_backend" not in server.varz()
        finally:
            server.stop()

    def test_load_checks_the_executor_before_any_file(self, tmp_path):
        import json

        from repro.dataset.synthetic import generate_uniform_table
        from repro.errors import CorruptIndexError, ShardError
        from repro.shard import load_sharded, save_sharded

        table = generate_uniform_table(300, {"a": 9}, {"a": 0.2}, seed=1)
        with repro.ShardedDatabase(table, num_shards=2) as db:
            path = save_sharded(db, tmp_path)
        entry = json.loads(path.read_text())["shards"][0]["table"]
        table_path = tmp_path / entry["path"]
        raw = bytearray(table_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        table_path.write_bytes(bytes(raw))
        with pytest.raises(CorruptIndexError):
            load_sharded(tmp_path)
        with pytest.raises(ShardError, match="'threads'"):
            load_sharded(tmp_path, executor="threads")


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
