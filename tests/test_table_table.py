"""Tests for the columnar Table."""

import numpy as np
import pytest

from repro.errors import SchemaError, TypeError_
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.datatypes import INTEGER, VARCHAR
from repro.types.schema import ColumnDef, Schema
from repro.types.sortspec import SortSpec


class TestConstruction:
    def test_from_pydict(self, small_table):
        assert small_table.num_rows == 5
        assert small_table.num_columns == 3

    def test_from_numpy(self):
        table = Table.from_numpy({"a": np.arange(3, dtype=np.int32)})
        assert table.num_rows == 3

    def test_empty(self):
        schema = Schema.of(("a", INTEGER))
        assert Table.empty(schema).num_rows == 0

    def test_column_count_mismatch_raises(self):
        schema = Schema.of(("a", INTEGER), ("b", INTEGER))
        with pytest.raises(SchemaError):
            Table(schema, [ColumnVector.from_values([1])])

    def test_length_mismatch_raises(self):
        schema = Schema.of(("a", INTEGER), ("b", INTEGER))
        with pytest.raises(SchemaError):
            Table(
                schema,
                [
                    ColumnVector.from_values([1]),
                    ColumnVector.from_values([1, 2]),
                ],
            )

    def test_type_mismatch_raises(self):
        schema = Schema.of(("a", VARCHAR))
        with pytest.raises(TypeError_):
            Table(schema, [ColumnVector.from_values([1])])

    def test_not_null_violation_raises(self):
        schema = Schema((ColumnDef("a", INTEGER, nullable=False),))
        with pytest.raises(TypeError_):
            Table(schema, [ColumnVector.from_values([1, None])])


class TestAccessors:
    def test_row(self, small_table):
        assert small_table.row(0) == ("NETHERLANDS", 1992, 1)
        assert small_table.row(2) == (None, 1990, 3)

    def test_iter_rows(self, small_table):
        rows = list(small_table.iter_rows())
        assert len(rows) == 5

    def test_to_pydict_round_trip(self, small_table):
        data = small_table.to_pydict()
        rebuilt = Table.from_pydict(data)
        assert rebuilt.equals(small_table)

    def test_column_by_name(self, small_table):
        assert small_table.column("c_customer_sk").to_pylist() == [1, 2, 3, 4, 5]


class TestTransformations:
    def test_select(self, small_table):
        projected = small_table.select(["c_customer_sk", "c_birth_year"])
        assert projected.schema.names == ("c_customer_sk", "c_birth_year")

    def test_take(self, small_table):
        taken = small_table.take(np.array([4, 0]))
        assert taken.row(0) == ("BELGIUM", 1968, 5)

    def test_slice(self, small_table):
        part = small_table.slice(1, 3)
        assert part.num_rows == 2
        assert part.row(0) == small_table.row(1)

    def test_concat(self, small_table):
        doubled = small_table.concat(small_table)
        assert doubled.num_rows == 10
        assert doubled.row(5) == small_table.row(0)

    def test_concat_schema_mismatch_raises(self, small_table):
        other = Table.from_pydict({"x": [1]})
        with pytest.raises(SchemaError):
            small_table.concat(other)

    def test_concat_many(self, small_table):
        tripled = small_table.concat(small_table.slice(0, 2), small_table)
        assert tripled.num_rows == 12
        assert tripled.row(5) == small_table.row(0)
        assert tripled.row(7) == small_table.row(0)
        assert small_table.concat() is small_table

    def test_concat_many_checks_every_schema(self, small_table):
        with pytest.raises(SchemaError):
            small_table.concat(small_table, Table.from_pydict({"x": [1]}))

    def test_equals_self(self, small_table):
        assert small_table.equals(small_table)

    def test_equals_different_rows(self, small_table):
        assert not small_table.equals(small_table.slice(0, 4))


class TestIsSortedBy:
    def test_sorted_table(self):
        table = Table.from_pydict({"a": [1, 2, 2, 3], "b": [4, 3, 9, 1]})
        assert table.is_sorted_by(SortSpec.of("a"))
        assert not table.is_sorted_by(SortSpec.of("b"))

    def test_multi_key(self):
        table = Table.from_pydict({"a": [1, 1, 2], "b": [2, 1, 0]})
        assert not table.is_sorted_by(SortSpec.of("a", "b"))
        assert table.is_sorted_by(SortSpec.of("a", "b DESC"))

    def test_nulls_respect_placement(self):
        table = Table.from_pydict({"a": [None, 1, 2]})
        assert table.is_sorted_by(SortSpec.of("a NULLS FIRST"))
        assert not table.is_sorted_by(SortSpec.of("a NULLS LAST"))
