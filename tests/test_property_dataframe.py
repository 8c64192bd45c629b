"""Property-based tests for the DataFrame substrate."""

import io

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.dataframe import DataFrame, Series, read_csv, write_csv

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def frames(draw, min_rows=0, max_rows=25):
    n_rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    n_cols = draw(st.integers(min_value=1, max_value=4))
    data = {}
    for c in range(n_cols):
        data[f"c{c}"] = draw(
            st.lists(finite_floats, min_size=n_rows, max_size=n_rows)
        )
    return DataFrame(data)


def _columns(frame):
    return {name: frame[name].to_list() for name in frame.columns}


class TestSeriesProperties:
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_mask_filter_preserves_order(self, values):
        s = Series(values)
        mask = s > 0
        filtered = s[mask]
        assert filtered.to_list() == [v for v in values if v > 0]


class TestFrameProperties:
    @given(frames(min_rows=1))
    def test_take_identity_permutation(self, frame):
        out = frame.take(np.arange(len(frame)))
        assert _columns(out) == _columns(frame)

    @given(frames(min_rows=1))
    def test_filter_all_true_is_identity(self, frame):
        out = frame.filter(np.ones(len(frame), dtype=bool))
        assert _columns(out) == _columns(frame)

    @given(frames(min_rows=1, max_rows=12))
    def test_csv_roundtrip(self, frame):
        buffer = io.StringIO()
        write_csv(frame, buffer)
        buffer.seek(0)
        back = read_csv(buffer)
        assert back.shape == frame.shape
        for column in frame.columns:
            assert np.allclose(
                back[column].to_numpy(float), frame[column].to_numpy(float), atol=1e-9
            )

    @given(frames(min_rows=1, max_rows=15))
    def test_groupby_sizes_sum_to_total(self, frame):
        frame["key"] = np.arange(len(frame)) % 3
        sizes = [len(sub) for _, sub in frame.groupby("key")]
        assert sum(sizes) == len(frame)

