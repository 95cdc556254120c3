"""Tests for ColumnVector: typed columns with validity masks."""

import numpy as np
import pytest

from repro.errors import TypeError_
from repro.table.column import ColumnVector
from repro.types.datatypes import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    INTEGER,
    VARCHAR,
)


class TestConstruction:
    def test_from_values_infers_integer(self):
        col = ColumnVector.from_values([1, 2, None])
        assert col.dtype is INTEGER
        assert col.null_count == 1

    def test_from_values_infers_bigint_on_overflow(self):
        col = ColumnVector.from_values([1, 2**40])
        assert col.dtype is BIGINT

    def test_from_values_infers_double(self):
        assert ColumnVector.from_values([1.5, 2]).dtype is DOUBLE

    def test_from_values_infers_varchar(self):
        assert ColumnVector.from_values(["a", None]).dtype is VARCHAR

    def test_from_values_infers_boolean(self):
        assert ColumnVector.from_values([True, False]).dtype is BOOLEAN

    def test_all_null_defaults_to_integer(self):
        assert ColumnVector.from_values([None, None]).dtype is INTEGER

    def test_mixed_types_raise(self):
        with pytest.raises(TypeError_):
            ColumnVector.from_values([1, "a"])

    def test_from_numpy(self):
        col = ColumnVector.from_numpy(np.arange(4, dtype=np.int32))
        assert col.dtype is INTEGER and not col.has_nulls

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError_):
            ColumnVector(INTEGER, np.zeros(3, dtype=np.float64))

    def test_2d_rejected(self):
        with pytest.raises(TypeError_):
            ColumnVector(INTEGER, np.zeros((2, 2), dtype=np.int32))

    def test_validity_shape_mismatch_rejected(self):
        with pytest.raises(TypeError_):
            ColumnVector(
                INTEGER,
                np.zeros(3, dtype=np.int32),
                np.ones(4, dtype=bool),
            )


class TestAccessors:
    def test_value_returns_python_types(self):
        col = ColumnVector.from_values([1, None])
        assert col.value(0) == 1 and isinstance(col.value(0), int)
        assert col.value(1) is None

    def test_float_value_is_python_float(self):
        col = ColumnVector.from_values([1.5])
        assert isinstance(col.value(0), float)

    def test_varchar_value_is_str(self):
        col = ColumnVector.from_values(["hello"])
        assert col.value(0) == "hello"

    def test_boolean_value_is_bool(self):
        col = ColumnVector.from_values([True])
        assert col.value(0) is True

    def test_to_pylist_round_trip(self):
        values = [3, None, 1, None, 2]
        assert ColumnVector.from_values(values).to_pylist() == values

    def test_null_count(self):
        col = ColumnVector.from_values([None, 1, None])
        assert col.null_count == 2 and col.has_nulls


class TestTransformations:
    def test_take_reorders_values_and_nulls(self):
        col = ColumnVector.from_values([10, None, 30])
        taken = col.take(np.array([2, 0, 1]))
        assert taken.to_pylist() == [30, 10, None]

    def test_slice(self):
        col = ColumnVector.from_values([1, 2, 3, 4])
        assert col.slice(1, 3).to_pylist() == [2, 3]

    def test_concat(self):
        a = ColumnVector.from_values([1, None])
        b = ColumnVector.from_values([3])
        assert a.concat(b).to_pylist() == [1, None, 3]

    def test_concat_type_mismatch_raises(self):
        with pytest.raises(TypeError_):
            ColumnVector.from_values([1]).concat(
                ColumnVector.from_values(["a"])
            )

    def test_concat_many(self):
        a = ColumnVector.from_values([1, None])
        b = ColumnVector.from_values([3])
        c = ColumnVector.from_values([None, 5])
        assert a.concat(b, c).to_pylist() == [1, None, 3, None, 5]
        with pytest.raises(TypeError_):
            a.concat(b, ColumnVector.from_values(["a"]))

    def test_equals_ignores_filler_under_nulls(self):
        a = ColumnVector(
            INTEGER,
            np.array([1, 99], dtype=np.int32),
            np.array([True, False]),
        )
        b = ColumnVector(
            INTEGER,
            np.array([1, 42], dtype=np.int32),
            np.array([True, False]),
        )
        assert a.equals(b)

    def test_equals_detects_value_difference(self):
        a = ColumnVector.from_values([1, 2])
        b = ColumnVector.from_values([1, 3])
        assert not a.equals(b)

    def test_equals_detects_null_position_difference(self):
        a = ColumnVector.from_values([1, None])
        b = ColumnVector.from_values([None, 1])
        assert not a.equals(b)

    def test_equals_nan_aware(self):
        a = ColumnVector.from_values([float("nan"), 1.0])
        b = ColumnVector.from_values([float("nan"), 1.0])
        assert a.equals(b)
