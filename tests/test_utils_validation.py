"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_count,
    check_feature_matrix,
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_same_length,
)


class TestScalarChecks:
    def test_positive_accepts_positive(self):
        assert check_positive(3.5, "x") == 3.5

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_positive_rejects(self, value):
        with pytest.raises(ValueError):
            check_positive(value, "x")

    def test_non_negative_accepts_zero(self):
        assert check_non_negative(0.0, "x") == 0.0

    @pytest.mark.parametrize("value", [-0.1, float("nan")])
    def test_non_negative_rejects(self, value):
        with pytest.raises(ValueError):
            check_non_negative(value, "x")

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_probability_accepts(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_probability_rejects(self, value):
        with pytest.raises(ValueError):
            check_probability(value, "p")

    def test_in_range_inclusive(self):
        assert check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_in_range_exclusive_rejects_boundary(self):
        with pytest.raises(ValueError):
            check_in_range(1.0, "x", 0.0, 1.0, inclusive=False)

    def test_in_range_rejects_outside(self):
        with pytest.raises(ValueError):
            check_in_range(5.0, "x", 0.0, 1.0)

    @pytest.mark.parametrize("value", [1, 7, np.int64(3)])
    def test_count_accepts_integers_and_returns_an_int(self, value):
        count = check_count(value, "n")
        assert type(count) is int and count == value

    @pytest.mark.parametrize("value", [0, -2, 2.5, 3.0, True, "3", None])
    def test_count_rejects(self, value):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            check_count(value, "n")

    def test_error_message_contains_name(self):
        with pytest.raises(ValueError, match="my_param"):
            check_positive(-1, "my_param")


class TestFeatureMatrix:
    def test_1d_promoted_to_row(self):
        out = check_feature_matrix([1.0, 2.0, 3.0])
        assert out.shape == (1, 3)

    def test_2d_passthrough(self):
        out = check_feature_matrix([[1, 2], [3, 4]])
        assert out.shape == (2, 2)
        assert out.dtype == float

    def test_n_features_mismatch(self):
        with pytest.raises(ValueError):
            check_feature_matrix([[1, 2]], n_features=3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            check_feature_matrix([[1.0, float("nan")]])

    def test_3d_rejected(self):
        with pytest.raises(ValueError):
            check_feature_matrix(np.zeros((2, 2, 2)))


class TestSameLength:
    def test_equal_lengths(self):
        assert check_same_length(("a", [1, 2]), ("b", [3, 4])) == 2

    def test_mismatch_raises_with_names(self):
        with pytest.raises(ValueError, match="a=2"):
            check_same_length(("a", [1, 2]), ("b", [3]))

    def test_empty_call(self):
        assert check_same_length() == 0
