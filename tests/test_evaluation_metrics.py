"""Tests for evaluation metrics and reporting helpers."""

import numpy as np
import pytest

from repro.evaluation import format_metric_table, format_summary, r2_score, rmse
from repro.evaluation.reporting import format_histogram


class TestRegressionMetrics:
    def test_rmse_zero_for_perfect_predictions(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_rmse_known_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))

    def test_rmse_is_symmetric(self):
        a, b = [1.0, 5.0, 2.0], [2.0, 3.0, 2.0]
        assert rmse(a, b) == rmse(b, a)

    def test_r2_perfect(self):
        assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_r2_mean_prediction_is_zero(self):
        actual = [1.0, 2.0, 3.0]
        assert r2_score(actual, [2.0, 2.0, 2.0]) == pytest.approx(0.0)

    def test_r2_can_be_negative(self):
        assert r2_score([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) < 0

    def test_r2_constant_actuals(self):
        assert r2_score([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert r2_score([2.0, 2.0], [1.0, 3.0]) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            r2_score([1.0, np.nan], [1.0, 2.0])


class TestReportingHelpers:
    def test_format_metric_table_contains_values(self):
        text = format_metric_table([{"round": 1, "rmse": 2.5}], title="demo")
        assert "demo" in text
        assert "2.5" in text

    def test_format_metric_table_empty(self):
        assert "(no rows)" in format_metric_table([])

    def test_format_summary(self):
        text = format_summary({"accuracy": 0.75, "rounds": 50})
        assert "accuracy" in text and "0.75" in text

    def test_format_histogram(self):
        text = format_histogram([1.0, 1.1, 5.0, 5.2, 5.1], bins=2, title="rmse")
        assert "rmse" in text
        assert "#" in text

    def test_format_histogram_empty(self):
        with pytest.raises(ValueError):
            format_histogram([])

    def test_format_histogram_bad_bins(self):
        with pytest.raises(ValueError):
            format_histogram([1.0], bins=0)
