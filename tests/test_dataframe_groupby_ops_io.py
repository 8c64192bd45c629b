"""Tests for repro.dataframe group-by and CSV I/O."""

import io

import numpy as np
import pytest

from repro.dataframe import DataFrame, read_csv, write_csv


@pytest.fixture
def runs():
    return DataFrame(
        {
            "run_id": ["r1", "r2", "r3", "r4", "r5"],
            "hardware": ["H0", "H1", "H0", "H2", "H1"],
            "runtime": [10.0, 12.0, 14.0, 9.0, 11.0],
        }
    )


class TestGroupBy:
    def test_group_count(self, runs):
        sizes = {key: len(sub) for key, sub in runs.groupby("hardware")}
        assert sizes == {("H0",): 2, ("H1",): 2, ("H2",): 1}
        assert list(sizes) == [("H0",), ("H1",), ("H2",)]  # first-appearance order

    def test_iteration_yields_subframes(self, runs):
        for key, sub in runs.groupby("hardware"):
            assert set(sub["hardware"].to_list()) == {key[0]}

    def test_multi_key(self, runs):
        runs["site"] = ["a", "a", "b", "b", "a"]
        groups = dict(runs.groupby(["hardware", "site"]))
        assert list(groups) == [("H0", "a"), ("H1", "a"), ("H0", "b"), ("H2", "b")]
        assert groups[("H1", "a")]["run_id"].to_list() == ["r2", "r5"]

    def test_missing_key_column(self, runs):
        with pytest.raises(KeyError):
            runs.groupby("nope")

    def test_empty_keys_rejected(self, runs):
        with pytest.raises(ValueError):
            runs.groupby([])


class TestCsvIO:
    def test_roundtrip_through_buffer(self, runs):
        buffer = io.StringIO()
        write_csv(runs, buffer)
        buffer.seek(0)
        back = read_csv(buffer)
        assert back.shape == runs.shape
        assert back["runtime"].to_list() == runs["runtime"].to_list()
        assert back["hardware"].to_list() == runs["hardware"].to_list()

    def test_roundtrip_through_file(self, runs, tmp_path):
        path = tmp_path / "runs.csv"
        write_csv(runs, path)
        back = read_csv(path)
        assert back.shape == runs.shape
        write_csv(runs, str(path))
        assert read_csv(str(path))["run_id"].to_list() == runs["run_id"].to_list()

    def test_type_inference_int_float_str(self):
        buffer = io.StringIO("a,b,c\n1,1.5,x\n2,2.5,y\n")
        frame = read_csv(buffer)
        assert frame["a"].values.dtype.kind == "i"
        assert frame["b"].values.dtype.kind == "f"
        assert frame["c"].values.dtype == object

    def test_integer_beyond_int64_becomes_float(self):
        frame = read_csv(io.StringIO("a\n100000000000000000000\n"))
        assert frame["a"].values.dtype == np.float64
        assert frame["a"][0] == 1e20

    def test_missing_values_become_nan(self):
        buffer = io.StringIO("a,b\n1,x\n,y\n3,z\n")
        frame = read_csv(buffer)
        assert np.isnan(frame["a"][1])
        assert frame["a"][0] == 1.0

    @pytest.mark.parametrize("token", ["nan", "NaN", "NA", "null", "None"])
    def test_missing_tokens_become_nan(self, token):
        frame = read_csv(io.StringIO(f"a\n2\n{token}\n"))
        assert frame["a"].values.dtype == np.float64
        assert frame["a"][0] == 2.0 and np.isnan(frame["a"][1])

    def test_all_missing_column_is_float_nan(self):
        frame = read_csv(io.StringIO("a,b\nNA,1\n,2\n"))
        assert frame["a"].values.dtype == np.float64
        assert np.isnan(frame["a"].values).all()

    def test_missing_text_becomes_empty_string(self):
        frame = read_csv(io.StringIO("a,b\nx,1\nNA,2\n"))
        assert frame["a"].to_list() == ["x", ""]

    def test_blank_lines_skipped(self):
        frame = read_csv(io.StringIO("a,b\n1,x\n\n2,y\n"))
        assert frame["a"].to_list() == [1, 2]

    def test_header_only(self):
        frame = read_csv(io.StringIO("a,b\n"))
        assert frame.shape == (0, 2)
        assert frame.columns == ["a", "b"]

    def test_empty_file(self):
        assert read_csv(io.StringIO("")).shape == (0, 0)

    def test_ragged_row_rejected(self):
        with pytest.raises(ValueError):
            read_csv(io.StringIO("a,b\n1\n"))

    def test_custom_delimiter_roundtrip(self, runs):
        buffer = io.StringIO()
        write_csv(runs, buffer, delimiter=";")
        assert buffer.getvalue().splitlines()[0] == "run_id;hardware;runtime"
        buffer.seek(0)
        back = read_csv(buffer, delimiter=";")
        assert back["run_id"].to_list() == runs["run_id"].to_list()

    def test_floats_roundtrip_bit_for_bit(self):
        values = [0.1 + 0.2, 1.0 / 3.0, 1e-300, 12345.678901234567]
        buffer = io.StringIO()
        write_csv(DataFrame({"x": values}), buffer)
        buffer.seek(0)
        assert read_csv(buffer)["x"].to_list() == values

    def test_missing_values_written_as_empty_fields(self):
        frame = DataFrame({"x": [1.5, float("nan")], "y": ["a", None]})
        buffer = io.StringIO()
        write_csv(frame, buffer)
        assert buffer.getvalue().splitlines() == ["x,y", "1.5,a", ","]

    def test_write_selected_columns(self, runs, tmp_path):
        path = tmp_path / "partial.csv"
        write_csv(runs, path, columns=["run_id"])
        back = read_csv(path)
        assert back.columns == ["run_id"]
