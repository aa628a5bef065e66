"""Unit tests for :class:`IncompleteTable`."""

import numpy as np
import pytest

from repro.dataset.schema import AttributeSpec, Schema
from repro.dataset.synthetic import generate_uniform_table
from repro.dataset.table import (
    IncompleteTable,
    concat_tables,
    specs_for_columns,
)
from repro.errors import SchemaError


@pytest.fixture
def schema():
    return Schema([AttributeSpec("a", 5), AttributeSpec("b", 3)])


@pytest.fixture
def table(schema):
    return IncompleteTable(
        schema,
        {
            "a": np.array([1, 0, 5, 3]),
            "b": np.array([0, 0, 2, 3]),
        },
    )


class TestConstruction:
    def test_basic(self, table):
        assert table.num_records == 4
        assert len(table) == 4

    def test_column_mismatch_rejected(self, schema):
        with pytest.raises(SchemaError, match="columns do not match"):
            IncompleteTable(schema, {"a": np.array([1])})

    def test_extra_column_rejected(self, schema):
        with pytest.raises(SchemaError, match="columns do not match"):
            IncompleteTable(
                schema,
                {"a": np.array([1]), "b": np.array([1]), "c": np.array([1])},
            )

    def test_length_mismatch_rejected(self, schema):
        with pytest.raises(SchemaError, match="differing lengths"):
            IncompleteTable(
                schema, {"a": np.array([1, 2]), "b": np.array([1])}
            )

    def test_out_of_domain_rejected(self, schema):
        with pytest.raises(SchemaError, match="outside"):
            IncompleteTable(
                schema, {"a": np.array([6]), "b": np.array([1])}
            )

    def test_negative_code_rejected(self, schema):
        with pytest.raises(SchemaError):
            IncompleteTable(
                schema, {"a": np.array([-1]), "b": np.array([1])}
            )

    def test_2d_column_rejected(self, schema):
        with pytest.raises(SchemaError, match="1-D"):
            IncompleteTable(
                schema,
                {"a": np.zeros((2, 2), dtype=int), "b": np.array([1, 1])},
            )

    def test_from_records_with_none_as_missing(self, schema):
        table = IncompleteTable.from_records(
            schema,
            [{"a": 2, "b": None}, {"a": None, "b": 3}],
        )
        assert table.value(0, "a") == 2
        assert table.value(0, "b") is None
        assert table.value(1, "a") is None

    def test_columns_are_readonly(self, table):
        with pytest.raises(ValueError):
            table.column("a")[0] = 9


class TestAccessors:
    def test_missing_mask(self, table):
        assert table.missing_mask("a").tolist() == [False, True, False, False]
        assert table.present_mask("b").tolist() == [False, False, True, True]

    def test_missing_fraction(self, table):
        assert table.missing_fraction("a") == pytest.approx(0.25)
        assert table.missing_fraction("b") == pytest.approx(0.5)

    def test_observed_cardinality(self, table):
        assert table.observed_cardinality("a") == 3  # {1, 5, 3}
        assert table.observed_cardinality("b") == 2  # {2, 3}

    def test_observed_cardinality_all_missing(self):
        schema = Schema([AttributeSpec("a", 5)])
        table = IncompleteTable(schema, {"a": np.zeros(3, dtype=int)})
        assert table.observed_cardinality("a") == 0

    def test_value(self, table):
        assert table.value(2, "a") == 5
        assert table.value(1, "a") is None

    def test_nbytes_positive(self, table):
        assert table.nbytes() == 2 * 4 * 8  # two int64 columns of 4 rows


class TestTransforms:
    def test_select_projects_columns(self, table):
        sub = table.select(["b"])
        assert sub.schema.names == ("b",)
        assert sub.num_records == 4

    def test_take_materializes_rows(self, table):
        sub = table.take(np.array([2, 3]))
        assert sub.num_records == 2
        assert sub.value(0, "a") == 5

    def test_take_empty(self, table):
        assert table.take(np.array([], dtype=np.int64)).num_records == 0


class TestSpecsForColumns:
    def test_infers_cardinality_from_max(self):
        schema = specs_for_columns({"a": np.array([0, 3, 1])})
        assert schema.cardinality("a") == 3

    def test_all_missing_column_gets_cardinality_one(self):
        schema = specs_for_columns({"a": np.zeros(3, dtype=int)})
        assert schema.cardinality("a") == 1


class TestConcatTables:
    @pytest.fixture
    def base_and_chunk(self):
        base = generate_uniform_table(
            400, {"a": 10, "b": 3}, {"a": 0.2, "b": 0.1}, seed=71
        )
        chunk = generate_uniform_table(
            150, {"a": 10, "b": 3}, {"a": 0.4, "b": 0.0}, seed=72
        )
        return base, chunk

    def test_concat_appends_rows(self, base_and_chunk):
        base, chunk = base_and_chunk
        combined = concat_tables(base, chunk)
        assert combined.num_records == 550
        assert np.array_equal(combined.column("a")[:400], base.column("a"))
        assert np.array_equal(combined.column("a")[400:], chunk.column("a"))

    def test_schema_mismatch_rejected(self, base_and_chunk):
        base, _ = base_and_chunk
        other = generate_uniform_table(10, {"a": 10}, {}, seed=1)
        with pytest.raises(SchemaError):
            concat_tables(base, other)
