"""Unit tests for dataset profiling and table persistence."""

import io

import numpy as np
import pytest

from repro.dataset.io import load_table, save_table
from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.stats import composition_grid, profile_table, summarize
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import IncompleteTable
from repro.errors import CorruptIndexError
from repro.storage.integrity import read_framed


class TestProfile:
    def test_profile_reports_per_attribute_stats(self):
        table = generate_uniform_table(
            5000, {"a": 10, "b": 50}, {"a": 0.2, "b": 0.0}, seed=1
        )
        profiles = {p.name: p for p in profile_table(table)}
        assert profiles["a"].cardinality == 10
        assert profiles["a"].missing_fraction == pytest.approx(0.2, abs=0.02)
        assert profiles["b"].missing_fraction == 0.0
        assert profiles["b"].observed_cardinality == 50

    def test_summarize_headline_stats(self):
        table = generate_uniform_table(
            1000, {"a": 2, "b": 100}, {"a": 0.5, "b": 0.1}, seed=2
        )
        summary = summarize(table)
        assert summary["num_records"] == 1000
        assert summary["num_attributes"] == 2
        assert summary["min_cardinality"] == 2
        assert summary["max_cardinality"] == 100
        assert 25 < summary["avg_missing_pct"] < 35


class TestCompositionGrid:
    def test_buckets_attributes_into_bands(self):
        table = generate_uniform_table(
            2000,
            {"a": 5, "b": 30, "c": 120},
            {"a": 0.0, "b": 0.2, "c": 0.6},
            seed=3,
        )
        grid = composition_grid(table, [9, 50, 100], [0.0, 25.0, 50.0])
        assert grid[("<=9", "<=0")] == 1
        assert grid[("<=50", "<=25")] == 1
        assert grid[(">100", ">50")] == 1

    def test_grid_counts_sum_to_attribute_count(self):
        table = generate_uniform_table(
            500, {f"x{i}": 10 for i in range(7)},
            {f"x{i}": 0.1 * i for i in range(7)}, seed=4,
        )
        grid = composition_grid(table, [9, 50], [10.0, 30.0])
        assert sum(grid.values()) == 7


class TestPersistence:
    def test_roundtrip_preserves_schema_and_data(self, tmp_path):
        table = generate_uniform_table(
            300, {"a": 10, "b": 3}, {"a": 0.3, "b": 0.0}, seed=5
        )
        path = tmp_path / "table.npz"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.schema == table.schema
        for name in table.schema.names:
            assert np.array_equal(loaded.column(name), table.column(name))

    def test_roundtrip_preserves_unobserved_cardinality(self, tmp_path):
        # Cardinality 100 declared but only values <= 3 present: the schema
        # must survive, not be re-inferred from the data.
        schema = Schema([AttributeSpec("a", 100)])
        table = IncompleteTable(schema, {"a": np.array([1, 2, 3, 0])})
        path = tmp_path / "t.npz"
        save_table(table, path)
        assert load_table(path).schema.cardinality("a") == 100

    def test_loading_garbage_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, whatever=np.arange(3))
        with pytest.raises(CorruptIndexError):
            load_table(path)

    def test_suffix_normalized_symmetrically(self, tmp_path):
        # Historically save_table appended ".npz" (numpy behaviour) while
        # load_table used the path verbatim, so save(p); load(p) failed.
        # Both directions now normalize: suffixless paths gain ".npz".
        table = generate_uniform_table(50, {"a": 4}, {"a": 0.2}, seed=9)
        bare = tmp_path / "table"
        save_table(table, bare)
        assert not bare.exists()
        assert (tmp_path / "table.npz").exists()
        for spelling in (bare, tmp_path / "table.npz"):
            loaded = load_table(spelling)
            assert np.array_equal(loaded.column("a"), table.column("a"))

    def test_explicit_suffix_not_doubled(self, tmp_path):
        table = generate_uniform_table(50, {"a": 4}, {"a": 0.0}, seed=9)
        path = tmp_path / "t.npz"
        save_table(table, path)
        assert path.exists()
        assert not (tmp_path / "t.npz.npz").exists()
        assert load_table(path).schema == table.schema

    def test_save_reports_bytes_written(self, tmp_path):
        table = generate_uniform_table(50, {"a": 4}, {"a": 0.0}, seed=9)
        path = tmp_path / "t.npz"
        assert save_table(table, path) == path.stat().st_size

    def test_columns_are_stored_and_loaded_narrow(self, tmp_path):
        schema = Schema(
            [AttributeSpec("small", 255), AttributeSpec("wide", 300)]
        )
        table = IncompleteTable(
            schema,
            {"small": np.array([0, 1, 255, 7]),
             "wide": np.array([0, 256, 300, 1])},
        )
        path = tmp_path / "t.npz"
        save_table(table, path)
        (_, payload), = read_framed(path)
        with np.load(io.BytesIO(payload)) as archive:
            assert archive["col_0"].dtype == np.uint8
            assert archive["col_1"].dtype == np.uint16
        loaded = load_table(path)
        for name, width in zip(schema.names, (np.uint8, np.uint16)):
            assert table.column(name).dtype == width
            assert loaded.column(name).dtype == width
            assert np.array_equal(loaded.column(name), table.column(name))

    def test_legacy_int64_columns_still_load(self, tmp_path):
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            __names__=np.array(["a"]),
            __cardinalities__=np.array([9], dtype=np.int64),
            col_0=np.array([0, 9, 4], dtype=np.int64),
        )
        assert load_table(path).column("a").tolist() == [0, 9, 4]
