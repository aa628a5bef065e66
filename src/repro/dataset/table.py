"""The :class:`IncompleteTable`: a column store for data with missing values.

Each column is a dense ``numpy`` integer array in which the code ``0``
(:data:`repro.dataset.schema.MISSING`) marks a missing value and codes
``1..C_i`` are the attribute's real values.  A column is held at its stored
width, ``np.min_scalar_type(C_i)`` (one byte for ``C_i <= 255``), so code
that does arithmetic on a column widens it first.  This mirrors the paper's problem
definition exactly: "assume the domain of the attribute values is the
integers from 1 to C_i".
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.dataset.schema import MISSING, AttributeSpec, Schema
from repro.errors import SchemaError


class IncompleteTable:
    """An immutable columnar table whose cells may be missing.

    Parameters
    ----------
    schema:
        The table schema.
    columns:
        Mapping from attribute name to a 1-D integer array.  All columns must
        share one length; values must lie in ``{0} | {1..C_i}``.
    validate:
        When true (the default), check every column against the schema.
        Generators that construct provably valid codes may pass ``False``.
    """

    # Weak-referenceable so a saved shard table can remember its file.
    __slots__ = ("_schema", "_columns", "_num_records", "__weakref__")

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        *,
        validate: bool = True,
    ):
        self._schema = schema
        if set(columns) != set(schema.names):
            missing_cols = set(schema.names) - set(columns)
            extra_cols = set(columns) - set(schema.names)
            raise SchemaError(
                f"columns do not match schema (missing={sorted(missing_cols)}, "
                f"extra={sorted(extra_cols)})"
            )
        coerced: dict[str, np.ndarray] = {}
        lengths = {len(col) for col in columns.values()}
        if len(lengths) != 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")
        self._num_records = lengths.pop()
        for spec in schema:
            given = np.asarray(columns[spec.name])
            if given.ndim != 1:
                raise SchemaError(f"column {spec.name!r} must be 1-D")
            if validate and len(given):
                lo = int(given.min())
                hi = int(given.max())
                if lo < 0 or hi > spec.cardinality:
                    raise SchemaError(
                        f"column {spec.name!r} has values outside "
                        f"{{0}} | 1..{spec.cardinality} (min={lo}, max={hi})"
                    )
            # Read-only arrays of the stored width are aliased; a writable
            # caller array is copied, so the caller's array is never frozen.
            col = given.astype(np.min_scalar_type(spec.cardinality), copy=False)
            if col is given and col.flags.writeable:
                col = col.copy()
            col.setflags(write=False)
            coerced[spec.name] = col
        self._columns = coerced

    @classmethod
    def from_records(
        cls,
        schema: Schema,
        records: Iterable[Mapping[str, int | None]],
    ) -> "IncompleteTable":
        """Build a table from row dictionaries; ``None`` marks a missing cell."""
        rows = list(records)
        columns = {
            name: np.array(
                [MISSING if row.get(name) is None else int(row[name]) for row in rows],
                dtype=np.int64,
            )
            for name in schema.names
        }
        return cls(schema, columns)

    @property
    def schema(self) -> Schema:
        """The table schema."""
        return self._schema

    @property
    def num_records(self) -> int:
        """Number of records (the paper's ``n``)."""
        return self._num_records

    def column(self, name: str) -> np.ndarray:
        """The coded column for ``name`` (read-only view; 0 = missing)."""
        self._schema.attribute(name)
        return self._columns[name]

    def missing_mask(self, name: str) -> np.ndarray:
        """Boolean mask of records whose ``name`` value is missing."""
        return self.column(name) == MISSING

    def present_mask(self, name: str) -> np.ndarray:
        """Boolean mask of records whose ``name`` value is present."""
        return self.column(name) != MISSING

    def missing_fraction(self, name: str) -> float:
        """Fraction of records missing the ``name`` attribute."""
        if self._num_records == 0:
            return 0.0
        return float(self.missing_mask(name).mean())

    def observed_cardinality(self, name: str) -> int:
        """Number of distinct non-missing values actually present."""
        col = self.column(name)
        present = col[col != MISSING]
        if len(present) == 0:
            return 0
        return int(len(np.unique(present)))

    def value(self, record: int, name: str) -> int | None:
        """Cell value for one record, or ``None`` when missing."""
        code = int(self.column(name)[record])
        return None if code == MISSING else code

    def select(self, names: Iterable[str]) -> "IncompleteTable":
        """Project the table onto a subset of attributes."""
        names = list(names)
        sub = Schema(self._schema.attribute(n) for n in names)
        return IncompleteTable(
            sub, {n: self._columns[n] for n in names}, validate=False
        )

    def take(self, record_ids: np.ndarray) -> "IncompleteTable":
        """Materialize a row subset of the table."""
        record_ids = np.asarray(record_ids, dtype=np.int64)
        return IncompleteTable(
            self._schema,
            {n: c[record_ids] for n, c in self._columns.items()},
            validate=False,
        )

    def rows(self, start: int, stop: int) -> "IncompleteTable":
        """Rows ``[start, stop)`` as views of this table's columns."""
        return IncompleteTable(
            self._schema,
            {n: c[start:stop] for n, c in self._columns.items()},
            validate=False,
        )

    def nbytes(self) -> int:
        """Total bytes held by the coded column arrays."""
        return sum(col.nbytes for col in self._columns.values())

    def __len__(self) -> int:
        return self._num_records

    def __repr__(self) -> str:
        return (
            f"IncompleteTable({self._num_records} records x "
            f"{self._schema.dimensionality} attributes)"
        )


def concat_tables(first: IncompleteTable, *rest: IncompleteTable) -> IncompleteTable:
    """Concatenate tables with identical schemas (append rows), in order."""
    if any(table.schema != first.schema for table in rest):
        raise SchemaError("cannot concatenate tables with different schemas")
    columns = {
        name: np.concatenate(
            [first.column(name)] + [table.column(name) for table in rest]
        )
        for name in first.schema.names
    }
    return IncompleteTable(first.schema, columns, validate=False)


def join_tables(tables: "list[IncompleteTable]") -> IncompleteTable:
    """:func:`concat_tables`, holding one copy of each column.

    Each of ``tables`` is left holding views of its rows of the joined
    columns (the values do not change), so the rows are not held twice.
    """
    first = tables[0]
    return IncompleteTable(first.schema, {
        name: concatenate_shared([table._columns for table in tables], name)
        for name in first.schema.names
    }, validate=False)


def concatenate_shared(holders: "list[dict]", key) -> np.ndarray:
    """``holders``' arrays under ``key`` concatenated, each holder left
    with a read-only view of its rows of the result, so one copy is held."""
    joined = np.concatenate([holder[key] for holder in holders])
    joined.setflags(write=False)
    start = 0
    for holder in holders:
        stop = start + len(holder[key])
        holder[key] = joined[start:stop]
        start = stop
    return joined


def specs_for_columns(columns: Mapping[str, np.ndarray]) -> Schema:
    """Infer a schema from coded columns, using each column's max as ``C_i``."""
    specs = []
    for name, col in columns.items():
        col = np.asarray(col)
        cardinality = int(col.max()) if len(col) else 1
        specs.append(AttributeSpec(name, max(cardinality, 1)))
    return Schema(specs)
