"""Tests for the baseline recommenders."""

import numpy as np
import pytest

from repro.baselines import (
    BestFixedHardwareRecommender,
    FullFitOracle,
    GroundTruthOracle,
    LinearRegressionRecommender,
    RandomRecommender,
    train_regression_ensemble,
)
from repro.baselines import linear_regression
from repro.core.models import base as model_base
from repro.dataframe import DataFrame
from repro.hardware import ndp_catalog
from repro.workloads import LinearRuntimeWorkload, TraceGenerator


@pytest.fixture
def workload(ndp):
    return LinearRuntimeWorkload(
        feature_ranges={"x": (1.0, 10.0), "y": (0.0, 5.0)},
        coefficients={
            "H0": ({"x": 10.0, "y": 1.0}, 5.0),
            "H1": ({"x": 2.0, "y": 1.0}, 5.0),
            "H2": ({"x": 6.0, "y": 1.0}, 5.0),
        },
        noise_sigma=0.5,
    )


@pytest.fixture
def history(workload, ndp):
    return TraceGenerator(workload, ndp, seed=8).generate_frame(60, grid=True)


class TestLinearRegressionRecommender:
    def test_requires_fit_before_use(self, ndp):
        rec = LinearRegressionRecommender(ndp, ["x", "y"])
        with pytest.raises(RuntimeError):
            rec.recommend({"x": 1.0, "y": 1.0})

    def test_fit_and_recommend_fastest(self, ndp, history):
        rec = LinearRegressionRecommender(ndp, ["x", "y"]).fit(history)
        assert rec.recommend({"x": 5.0, "y": 2.0}).name == "H1"

    def test_predict_runtimes_close_to_truth(self, ndp, workload, history):
        rec = LinearRegressionRecommender(ndp, ["x", "y"]).fit(history)
        f = {"x": 5.0, "y": 2.0}
        predictions = rec.predict_runtimes(f)
        for hw in ndp:
            assert predictions[hw.name] == pytest.approx(
                workload.expected_runtime(f, hw), rel=0.1
            )

    def test_score_on_training_data_is_good(self, ndp, history):
        rec = LinearRegressionRecommender(ndp, ["x", "y"]).fit(history)
        scores = rec.score(history)
        assert scores["rmse"] < 2.0
        assert scores["r2"] > 0.95

    def test_missing_column_raises(self, ndp):
        rec = LinearRegressionRecommender(ndp, ["x"])
        with pytest.raises(KeyError):
            rec.fit(DataFrame({"hardware": ["H0"], "runtime_seconds": [1.0]}))

    def test_empty_features_rejected(self, ndp):
        with pytest.raises(ValueError):
            LinearRegressionRecommender(ndp, [])

    def test_hardware_without_rows_keeps_unfitted_model(self, ndp, history):
        only_h0 = history.filter(history["hardware"] == "H0")
        rec = LinearRegressionRecommender(ndp, ["x", "y"]).fit(only_h0)
        assert rec.model_for("H1").n_observations == 0


class TestCheckedOnce:
    """The offline recommender checks each input once, then predicts on the trusted path."""

    def test_fit_checks_per_model_and_score_once_per_frame(self, monkeypatch, ndp, history):
        calls = {"models": 0, "recommender": 0}
        for key, module in (("models", model_base), ("recommender", linear_regression)):

            def counted(*args, _key=key, _check=module.check_feature_matrix, **kwargs):
                calls[_key] += 1
                return _check(*args, **kwargs)

            monkeypatch.setattr(module, "check_feature_matrix", counted)
        rec = LinearRegressionRecommender(ndp, ["x", "y"]).fit(history)
        assert calls == {"models": 3, "recommender": 0}
        rec.score(history)
        assert calls == {"models": 3, "recommender": 1}
        rec.predict_runtimes({"x": 5.0, "y": 2.0})
        assert calls == {"models": 3, "recommender": 2}

    def test_non_finite_features_are_refused(self, ndp, history):
        rec = LinearRegressionRecommender(ndp, ["x", "y"]).fit(history)
        frame = DataFrame(
            {
                "x": [1.0, float("nan")],
                "y": [1.0, 1.0],
                "hardware": ["H0", "H1"],
                "runtime_seconds": [5.0, 6.0],
            }
        )
        with pytest.raises(ValueError):
            rec.score(frame)
        with pytest.raises(ValueError):
            rec.predict_runtimes({"x": float("inf"), "y": 1.0})


class TestRegressionEnsemble:
    def test_shapes_and_summary(self, ndp, history):
        result = train_regression_ensemble(
            history, ndp, ["x", "y"], n_models=10, n_samples=20, seed=0
        )
        assert result.rmse_scores.shape == (10,)
        assert result.r2_scores.shape == (10,)
        summary = result.summary()
        assert summary["rmse_min"] <= summary["rmse_mean"] <= summary["rmse_max"]
        assert summary["r2_range"] >= 0

    def test_small_subsets_are_worse_than_full_fit(self, ndp, history):
        ensemble = train_regression_ensemble(
            history, ndp, ["x", "y"], n_models=20, n_samples=10, seed=1
        )
        full = LinearRegressionRecommender(ndp, ["x", "y"]).fit(history).score(history)
        assert ensemble.summary()["rmse_mean"] >= full["rmse"]

    def test_reproducible_with_seed(self, ndp, history):
        a = train_regression_ensemble(history, ndp, ["x", "y"], n_models=5, n_samples=15, seed=3)
        b = train_regression_ensemble(history, ndp, ["x", "y"], n_models=5, n_samples=15, seed=3)
        assert np.allclose(a.rmse_scores, b.rmse_scores)

    def test_rejects_oversized_subset(self, ndp, history):
        with pytest.raises(ValueError):
            train_regression_ensemble(history, ndp, ["x"], n_samples=len(history) + 1)

    def test_rejects_bad_counts(self, ndp, history):
        with pytest.raises(ValueError):
            train_regression_ensemble(history, ndp, ["x"], n_models=0)
        with pytest.raises(ValueError):
            train_regression_ensemble(history, ndp, ["x"], n_samples=0)

    def test_separate_evaluation_frame(self, ndp, workload, history):
        eval_frame = TraceGenerator(workload, ndp, seed=99).generate_frame(30, grid=True)
        result = train_regression_ensemble(
            history, ndp, ["x", "y"], n_models=5, n_samples=20, seed=0,
            evaluation_frame=eval_frame,
        )
        assert np.all(np.isfinite(result.rmse_scores))


class TestOracles:
    def test_full_fit_oracle_reference_scores(self, ndp, history):
        oracle = FullFitOracle(history, ndp, ["x", "y"])
        assert oracle.reference_rmse > 0
        assert 0 <= oracle.reference_r2 <= 1

    def test_ground_truth_best_hardware(self, ndp, workload):
        oracle = GroundTruthOracle(workload, ndp)
        assert oracle.best_hardware({"x": 5.0, "y": 0.0}).name == "H1"

    def test_ground_truth_best_runtime(self, ndp, workload):
        oracle = GroundTruthOracle(workload, ndp)
        f = {"x": 5.0, "y": 0.0}
        assert oracle.best_runtime(f) == pytest.approx(workload.expected_runtime(f, ndp["H1"]))

    def test_acceptable_hardware_with_tolerance(self, ndp, workload):
        oracle = GroundTruthOracle(workload, ndp)
        f = {"x": 1.0, "y": 0.0}
        strict = oracle.acceptable_hardware(f)
        generous = oracle.acceptable_hardware(f, tolerance_seconds=1000.0)
        assert strict <= generous
        assert generous == set(ndp.names)

    def test_acceptable_hardware_rejects_negative_tolerance(self, ndp, workload):
        with pytest.raises(ValueError):
            GroundTruthOracle(workload, ndp).acceptable_hardware({"x": 1.0, "y": 0.0}, -1.0)


class TestRandomAndFixed:
    def test_random_recommender_uniform(self, ndp):
        rec = RandomRecommender(ndp, seed=0)
        counts = {}
        for _ in range(300):
            counts[rec.recommend({}).name] = counts.get(rec.recommend({}).name, 0) + 1
        assert len(counts) == 3
        assert rec.expected_accuracy == pytest.approx(1 / 3)

    def test_random_recommender_observe_is_noop(self, ndp):
        RandomRecommender(ndp).observe({}, "H0", 1.0)

    def test_best_fixed_requires_fit(self, ndp):
        with pytest.raises(RuntimeError):
            BestFixedHardwareRecommender(ndp).recommend({})

    def test_best_fixed_picks_lowest_mean(self, ndp, history):
        rec = BestFixedHardwareRecommender(ndp).fit(history)
        means = rec.mean_runtimes
        assert rec.recommend({}).name == min(means, key=means.get)

    def test_best_fixed_missing_columns(self, ndp):
        with pytest.raises(KeyError):
            BestFixedHardwareRecommender(ndp).fit(DataFrame({"x": [1.0]}))

    def test_best_fixed_no_matching_hardware(self, ndp):
        frame = DataFrame({"hardware": ["H9"], "runtime_seconds": [1.0]})
        with pytest.raises(ValueError):
            BestFixedHardwareRecommender(ndp).fit(frame)
