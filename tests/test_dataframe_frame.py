"""Tests for repro.dataframe.frame."""

import numpy as np
import pytest

from repro.dataframe import DataFrame, Series


@pytest.fixture
def df():
    return DataFrame(
        {
            "size": [100, 200, 300, 400],
            "runtime": [1.0, 2.0, 3.5, 4.0],
            "hardware": ["H0", "H1", "H0", "H1"],
        }
    )


class TestConstruction:
    def test_shape_and_columns(self, df):
        assert df.shape == (4, 3)
        assert df.columns == ["size", "runtime", "hardware"]

    def test_from_records(self):
        frame = DataFrame.from_records([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert frame.shape == (2, 2)

    def test_from_records_union_of_keys(self):
        frame = DataFrame.from_records([{"a": 1}, {"b": 2}])
        assert set(frame.columns) == {"a", "b"}
        assert frame["a"].to_list() == [1, None]
        assert frame["b"].to_list() == [None, 2]

    def test_empty(self):
        for frame in (DataFrame({}), DataFrame(), DataFrame(None)):
            assert frame.shape == (0, 0)
            assert frame.columns == []

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            DataFrame({"a": [1, 2], "b": [1]})

    def test_explicit_column_order(self):
        frame = DataFrame({"a": [1], "b": [2]}, columns=["b", "a"])
        assert frame.columns == ["b", "a"]

    def test_missing_column_in_data_rejected(self):
        with pytest.raises(KeyError):
            DataFrame({"a": [1]}, columns=["a", "z"])

    def test_from_records_explicit_columns(self):
        frame = DataFrame.from_records([{"a": 1, "b": 2, "c": 3}], columns=["c", "a"])
        assert frame.columns == ["c", "a"]
        assert frame.row(0) == {"c": 3, "a": 1}

    def test_unsupported_data_rejected(self):
        with pytest.raises(TypeError):
            DataFrame([1, 2])
        with pytest.raises(TypeError):
            DataFrame(5)


class TestColumnAccess:
    def test_getitem_column(self, df):
        assert isinstance(df["size"], Series)
        assert df["size"].to_list() == [100, 200, 300, 400]

    def test_getitem_missing_column(self, df):
        with pytest.raises(KeyError, match="no column"):
            df["nope"]
        with pytest.raises(KeyError, match="no column"):
            df.select(["size", "nope"])

    def test_getitem_list_selects(self, df):
        sub = df[["runtime", "size"]]
        assert sub.columns == ["runtime", "size"]
        sub = df[("hardware", "size")]
        assert sub.columns == ["hardware", "size"]
        assert sub["size"].to_list() == [100, 200, 300, 400]

    def test_getitem_unsupported_key_raises(self, df):
        with pytest.raises(TypeError):
            df[0]

    def test_select_has_its_own_columns(self, df):
        sub = df.select(["size"])
        sub["extra"] = 0
        assert df.columns == ["size", "runtime", "hardware"]

    def test_setitem_scalar_broadcasts(self, df):
        df["flag"] = 1
        assert df["flag"].to_list() == [1, 1, 1, 1]

    def test_setitem_length_mismatch(self, df):
        with pytest.raises(ValueError):
            df["bad"] = [1, 2]

    def test_setitem_replaces_column_in_place(self, df):
        df["size"] = [1, 2, 3, 4]
        assert df.columns == ["size", "runtime", "hardware"]
        assert df["size"].to_list() == [1, 2, 3, 4]

    def test_setitem_first_column_sets_length(self):
        frame = DataFrame()
        frame["a"] = [1, 2, 3]
        assert frame.shape == (3, 1)
        with pytest.raises(ValueError):
            frame["b"] = [1, 2]

    def test_setitem_series(self, df):
        df["slow"] = Series(df["runtime"] > 2.5)
        assert df["slow"].to_list() == [False, False, True, True]

    def test_drop(self, df):
        out = df.drop("hardware")
        assert "hardware" not in out
        assert "hardware" in df  # original untouched
        assert df.drop(["size", "hardware"]).columns == ["runtime"]

    def test_drop_missing(self, df):
        with pytest.raises(KeyError):
            df.drop("nope")

    def test_contains(self, df):
        assert "size" in df
        assert "nope" not in df


class TestRowAccess:
    def test_row(self, df):
        assert df.row(1) == {"size": 200, "runtime": 2.0, "hardware": "H1"}

    def test_row_negative_index(self, df):
        assert df.row(-1)["size"] == 400

    def test_row_out_of_range(self, df):
        with pytest.raises(IndexError):
            df.row(10)
        with pytest.raises(IndexError):
            df.row(-5)

    def test_iterrows(self, df):
        rows = list(df.iterrows())
        assert len(rows) == 4
        assert rows[0]["hardware"] == "H0"
        assert list(DataFrame({"a": []}).iterrows()) == []

    def test_head(self, df):
        assert df.head(2)["size"].to_list() == [100, 200]
        assert len(df.head(10)) == 4
        assert DataFrame({"a": list(range(7))}).head()["a"].to_list() == [0, 1, 2, 3, 4]

    def test_take_reorders(self, df):
        out = df.take([2, 0])
        assert out["size"].to_list() == [300, 100]
        out = df.take([])
        assert out.shape == (0, 3)
        assert out.columns == df.columns

    def test_filter_mask(self, df):
        out = df.filter(df["size"] > 150)
        assert len(out) == 3
        by_series = df.filter(Series(df["hardware"] == "H1"))
        by_list = df.filter([False, True, False, True])
        assert by_series["size"].to_list() == by_list["size"].to_list() == [200, 400]

    def test_filter_bad_mask_shape(self, df):
        with pytest.raises(ValueError):
            df.filter(np.array([True]))

    def test_getitem_boolean_mask(self, df):
        out = df[df["hardware"] == "H0"]
        assert len(out) == 2

    def test_sample_without_replacement(self, df):
        out = df.sample(3, np.random.default_rng(0))
        assert len(out) == 3

    def test_sample_too_many_raises(self, df):
        with pytest.raises(ValueError):
            df.sample(10, np.random.default_rng(0))

    def test_sample_with_replacement(self, df):
        out = df.sample(10, np.random.default_rng(0), replace=True)
        assert len(out) == 10

    def test_sample_is_reproducible_and_distinct(self, df):
        first = df.sample(4, np.random.default_rng(7))["size"].to_list()
        again = df.sample(4, np.random.default_rng(7))["size"].to_list()
        assert first == again
        assert sorted(first) == [100, 200, 300, 400]


class TestConversion:
    def test_to_numpy_selected_columns(self, df):
        arr = df.to_numpy(["size", "runtime"])
        assert arr.shape == (4, 2)
        assert arr.dtype == float

    def test_to_numpy_empty_columns(self, df):
        assert df.to_numpy([]).shape == (4, 0)

    def test_to_numpy_defaults_to_all_columns(self):
        frame = DataFrame({"a": [1, 2], "b": [0.5, 1.5]})
        assert frame.to_numpy().tolist() == [[1.0, 0.5], [2.0, 1.5]]
        assert frame.to_numpy(dtype=int).dtype == int


class TestCombination:
    def test_groupby_returns_groups(self, df):
        gb = df.groupby("hardware")
        assert len(gb) == 2
        (key, first), (_, second) = gb
        assert key == ("H0",)
        assert first.columns == df.columns
        assert first["size"].to_list() == [100, 300]
        assert second["runtime"].to_list() == [2.0, 4.0]
        assert DataFrame({"hardware": []}).groupby("hardware") == []
