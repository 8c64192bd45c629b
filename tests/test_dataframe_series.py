"""Tests for repro.dataframe.series."""

import operator

import numpy as np
import pytest

from repro.dataframe import Series


class TestConstruction:
    def test_basic(self):
        s = Series([1, 2, 3], name="x")
        assert len(s) == 3
        assert s.name == "x"

    def test_scalar_becomes_length_one(self):
        assert len(Series(5)) == 1

    def test_strings_become_object_dtype(self):
        s = Series(["a", "b"])
        assert s.values.dtype == object

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            Series(np.zeros((2, 2)))

    def test_values_property(self):
        s = Series([1.0, 2.0])
        assert isinstance(s.values, np.ndarray)

    def test_numeric_dtypes_follow_the_input(self):
        assert Series([1, 2]).values.dtype == np.int64
        assert Series([1, 2.5]).values.dtype == np.float64

    def test_name_is_a_string(self):
        assert Series([1], name=3).name == "3"
        assert Series([1]).name == ""


class TestIndexing:
    def test_scalar_index(self):
        s = Series([10, 20, 30])
        assert s[1] == 20
        assert s[-1] == 30
        assert s[np.int64(1)] == 20

    def test_slice_returns_series(self):
        s = Series([1, 2, 3, 4], name="v")[1:3]
        assert isinstance(s, Series)
        assert s.to_list() == [2, 3]
        assert s.name == "v"

    def test_boolean_mask(self):
        s = Series([1, 2, 3, 4])
        out = s[np.array([True, False, True, False])]
        assert out.to_list() == [1, 3]

    def test_fancy_index(self):
        s = Series([1, 2, 3, 4])
        assert s[[3, 0]].to_list() == [4, 1]


class TestComparisons:
    @pytest.mark.parametrize(
        "op",
        [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge],
        ids=lambda op: op.__name__,
    )
    def test_matches_numpy(self, op):
        values = np.array([1.0, 2.5, 4.0, 2.5])
        mask = op(Series(values), 2.5)
        assert isinstance(mask, np.ndarray) and mask.dtype == bool
        assert mask.tolist() == op(values, 2.5).tolist()

    def test_series_against_series(self):
        mask = Series([1, 5, 3]) >= Series([1, 6, 2])
        assert mask.tolist() == [True, False, True]

    def test_numpy_array_on_the_left_defers_to_series(self):
        mask = np.array([2, 2, 2]) < Series([1, 5, 3])
        assert isinstance(mask, np.ndarray)
        assert mask.tolist() == [False, True, True]

    def test_string_column_equality(self):
        mask = Series(["H0", "H1", "H0"]) == "H0"
        assert mask.tolist() == [True, False, True]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Series([1, 2]) == Series([1, 2, 3])

    def test_series_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Series([1]))


class TestMethods:
    def test_to_numpy_copies(self):
        s = Series([1.0, 2.0])
        arr = s.to_numpy()
        arr[0] = 99
        assert s[0] == 1.0

    def test_to_numpy_casts(self):
        arr = Series([1, 2]).to_numpy(float)
        assert arr.dtype == np.float64
        assert arr.tolist() == [1.0, 2.0]

    def test_to_list_gives_python_scalars(self):
        assert [type(v) for v in Series([1, 2]).to_list()] == [int, int]
        assert [type(v) for v in Series([1.5]).to_list()] == [float]
