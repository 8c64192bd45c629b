"""Tests for the per-arm runtime models."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.banditware import BanditWare
from repro.core.models import (
    ArmModel,
    LeastSquaresModel,
    RecursiveLeastSquaresModel,
    RidgeModel,
    base,
    linear,
)


def _generate_linear_data(rng, n=60, w=(2.0, 1.0), b=5.0, noise=0.01):
    """Noise-free-ish linear runtimes with positive slopes (never clipped)."""
    X = rng.uniform(0, 10, size=(n, len(w)))
    y = X @ np.asarray(w) + b + rng.normal(0, noise, size=n)
    y = np.clip(y, 0, None)
    return X, y


class TestLeastSquaresModel:
    def test_unfitted_predicts_zero(self):
        model = LeastSquaresModel(2)
        assert model.predict([1.0, 2.0]) == 0.0
        assert not model.is_fitted

    def test_recovers_known_coefficients(self, rng):
        X, y = _generate_linear_data(rng)
        model = LeastSquaresModel(2).fit(X, y)
        assert model.coefficients == pytest.approx([2.0, 1.0], abs=0.05)
        assert model.intercept == pytest.approx(5.0, abs=0.2)

    def test_incremental_updates_match_batch_fit(self, rng):
        X, y = _generate_linear_data(rng, n=30)
        online = LeastSquaresModel(2)
        for xi, yi in zip(X, y):
            online.update_vector(xi, float(yi))
        batch = LeastSquaresModel(2).fit(X, y)
        assert online.coefficients == pytest.approx(batch.coefficients)
        assert online.intercept == pytest.approx(batch.intercept)
        assert online.n_observations == 30

    def test_prediction_matches_manual_formula(self, rng):
        X, y = _generate_linear_data(rng)
        model = LeastSquaresModel(2).fit(X, y)
        x = np.array([3.0, 4.0])
        assert model.predict(x) == pytest.approx(model.coefficients @ x + model.intercept)

    def test_underdetermined_is_still_usable(self):
        model = LeastSquaresModel(3)
        model.update_vector(np.array([1.0, 2.0, 3.0]), 10.0)
        assert np.isfinite(model.predict([1.0, 2.0, 3.0]))

    def test_rejects_bad_runtime(self):
        model = LeastSquaresModel(1)
        with pytest.raises(ValueError):
            model.fit([[1.0]], [-5.0])
        with pytest.raises(ValueError):
            model.fit([[1.0]], [float("nan")])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            LeastSquaresModel(2).fit([[1.0]], [1.0])
        with pytest.raises(ValueError):
            LeastSquaresModel(2).predict([1.0])

    def test_fit_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            LeastSquaresModel(1).fit([[1.0], [2.0]], [1.0])

    def test_coefficient_dict(self, rng):
        X, y = _generate_linear_data(rng)
        model = LeastSquaresModel(2).fit(X, y)
        named = model.coefficient_dict(["a", "b"])
        assert set(named) == {"w_a", "w_b", "b"}

    def test_coefficient_dict_wrong_length(self):
        with pytest.raises(ValueError):
            LeastSquaresModel(2).coefficient_dict(["only_one"])

    def test_invalid_n_features(self):
        with pytest.raises(ValueError):
            LeastSquaresModel(0)


#: Run in a fresh interpreter: import the package, fit once under- and once
#: over-determined, and note whether either heavy module got loaded; then
#: check the directory fallback and compare the loaded LAPACK routines with
#: scipy's public ones.
_COLD_START_SCRIPT = r"""
import json, sys, tempfile
import numpy as np
import repro
from repro.core.models import LeastSquaresModel, linear

rng = np.random.default_rng(0)
LeastSquaresModel(4).fit(rng.random((3, 4)), rng.random(3))
LeastSquaresModel(4).fit(rng.random((12, 4)), rng.random(12))
cold = sorted(name for name in ("scipy.linalg", "numpy.f2py") if name in sys.modules)

with tempfile.TemporaryDirectory() as empty:
    fallback = linear._load_lapack(empty)
imported = "scipy.linalg" in sys.modules
from scipy.linalg import lapack
public = (lapack.dposv, lapack.dgelsd, lapack.dgelsd_lwork)

def same(a, b):
    return len(a) == len(b) and all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(a, b)
    )

mismatches = systems = 0
for _ in range(240):
    p = int(rng.integers(1, 9))
    n = int(rng.integers(1, 2 * p + 2))
    design = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=p)
    targets = rng.normal(size=n)
    gram, xty = design.T @ design, design.T @ targets
    rhs = np.zeros(max(n, p))
    rhs[:n] = targets
    lwork = linear._dgelsd_lwork(n, p, 1)
    mismatches += not same(lwork, lapack.dgelsd_lwork(n, p, 1))
    args = (int(lwork[0]), int(lwork[1]), np.finfo(np.float64).eps * max(n, p), False, True)
    # dgelsd overwrites its right-hand side, so each call gets a copy.
    mismatches += not same(
        linear._dgelsd(design, rhs.copy(), *args), lapack.dgelsd(design, rhs.copy(), *args)
    )
    mismatches += not same(
        linear._dposv(gram, xty, lower=0), lapack.dposv(gram, xty, lower=0)
    )
    systems += 1
print(json.dumps({
    "cold": cold,
    "fallback_imported_public": imported,
    "fallback_is_public": all(a is b for a, b in zip(fallback, public)),
    "systems": systems,
    "mismatches": mismatches,
}))
"""


class TestLapackLoader:
    """Fitting loads scipy's compiled LAPACK wrappers without the ``scipy.linalg`` package."""

    def test_cold_start_skips_scipy_linalg_and_keeps_the_bits(self):
        src = Path(linear.__file__).resolve().parents[3]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", _COLD_START_SCRIPT],
            env=env, capture_output=True, text=True, check=False, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["cold"] == []
        assert report["fallback_imported_public"] and report["fallback_is_public"]
        assert report["systems"] >= 200
        assert report["mismatches"] == 0


class TestRidgeModel:
    def test_recovers_coefficients_with_small_penalty(self, rng):
        X, y = _generate_linear_data(rng, n=200)
        model = RidgeModel(2, alpha=1e-6).fit(X, y)
        assert model.coefficients == pytest.approx([2.0, 1.0], abs=0.05)

    def test_shrinkage_reduces_coefficient_norm(self, rng):
        X, y = _generate_linear_data(rng, n=50)
        weak = RidgeModel(2, alpha=1e-6).fit(X, y)
        strong = RidgeModel(2, alpha=1e4).fit(X, y)
        assert np.linalg.norm(strong.coefficients) < np.linalg.norm(weak.coefficients)

    def test_update_path(self, rng):
        X, y = _generate_linear_data(rng, n=20)
        model = RidgeModel(2, alpha=0.1)
        for xi, yi in zip(X, y):
            model.update_vector(xi, float(yi))
        assert model.n_observations == 20
        assert np.isfinite(model.predict([1.0, 1.0]))

    def test_well_conditioned_when_underdetermined(self):
        model = RidgeModel(5, alpha=1.0)
        model.update_vector(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 10.0)
        assert np.isfinite(model.predict([1, 2, 3, 4, 5]))

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            RidgeModel(2, alpha=0.0)

    def test_rejects_negative_runtime(self):
        with pytest.raises(ValueError):
            RidgeModel(1).fit([[1.0]], [-1.0])


class TestRecursiveLeastSquaresModel:
    def test_matches_ridge_on_same_stream(self, rng):
        X, y = _generate_linear_data(rng, n=80)
        rls = RecursiveLeastSquaresModel(2, regularization=1.0)
        ridge = RidgeModel(2, alpha=1.0)
        for xi, yi in zip(X, y):
            rls.update_vector(xi, float(yi))
            ridge.update_vector(xi, float(yi))
        # Ridge penalises only the slopes while RLS regularises the full
        # augmented vector, so allow a loose tolerance on the coefficients but
        # require close predictions.
        q = np.array([5.0, 5.0])
        assert rls.predict(q) == pytest.approx(ridge.predict(q), rel=0.05)

    def test_recovers_known_coefficients(self, rng):
        X, y = _generate_linear_data(rng, n=300)
        model = RecursiveLeastSquaresModel(2, regularization=1e-3)
        model.update_rows(X, y)
        assert model.coefficients == pytest.approx([2.0, 1.0], abs=0.05)
        assert model.intercept == pytest.approx(5.0, abs=0.3)

    def test_constant_time_update_keeps_no_history(self, rng):
        model = RecursiveLeastSquaresModel(2)
        X, y = _generate_linear_data(rng, n=10)
        for xi, yi in zip(X, y):
            model.update_vector(xi, float(yi))
        assert model.n_observations == 10
        assert not hasattr(model, "_X")

    def test_uncertainty_finite_before_any_observation(self):
        # The λI prior gives a width of σ·sqrt(zᵀz/λ) from round 0.
        model = RecursiveLeastSquaresModel(2, regularization=4.0, noise_std=2.0)
        assert model.uncertainty(np.array([1.0, 1.0])) == pytest.approx(np.sqrt(3.0))

    def test_uncertainty_scales_with_noise_std(self, rng):
        X, y = _generate_linear_data(rng, n=20)
        narrow = RecursiveLeastSquaresModel(2, noise_std=1.0)
        wide = RecursiveLeastSquaresModel(2, noise_std=3.0)
        narrow.update_rows(X, y)
        wide.update_rows(X, y)
        q = np.array([2.0, 3.0])
        assert wide.uncertainty(q) == pytest.approx(3.0 * narrow.uncertainty(q))

    def test_uncertainty_shrinks_with_observations(self, rng):
        model = RecursiveLeastSquaresModel(2, noise_std=1.0)
        q = np.array([1.0, 1.0])
        before = model.uncertainty(q)
        X, y = _generate_linear_data(rng, n=50)
        model.update_rows(X, y)
        assert model.uncertainty(q) < before

    def test_sample_prediction_varies_but_centres(self, rng):
        model = RecursiveLeastSquaresModel(1, regularization=1e-3, noise_std=1.0)
        for x in np.linspace(0, 10, 100):
            model.update_vector(np.array([x]), 3.0 * x + 2.0)
        samples = [model.sample_prediction(np.array([5.0]), rng) for _ in range(200)]
        assert np.mean(samples) == pytest.approx(model.predict([5.0]), abs=0.5)
        assert np.std(samples) > 0

    def test_rejects_bad_inputs(self, ndp):
        # The model trusts its observations; the bandit in front checks them.
        bandit = BanditWare(ndp, ["x"], arm_model_factory=RecursiveLeastSquaresModel)
        with pytest.raises(ValueError):
            bandit.observe({"x": 1.0}, "H0", -1.0)
        assert not bandit.models[0].is_fitted
        with pytest.raises(ValueError):
            RecursiveLeastSquaresModel(1).predict([1.0, 2.0])
        with pytest.raises(ValueError):
            RecursiveLeastSquaresModel(1, regularization=0.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquaresModel(1, noise_std=0.0)


_GOOD_X = [[1.0, 1.0], [2.0, 0.5], [0.5, 3.0]]

#: Bad batches: the defect sits in the middle row, after a good one.
_BAD_BATCHES = {
    "nan-runtime": (_GOOD_X, [4.0, float("nan"), 6.0]),
    "inf-runtime": (_GOOD_X, [4.0, float("inf"), 6.0]),
    "negative-runtime": (_GOOD_X, [4.0, -1.0, 6.0]),
    "nan-feature": ([[1.0, 1.0], [2.0, float("nan")], [0.5, 3.0]], [4.0, 5.0, 6.0]),
    "length-mismatch": (_GOOD_X, [4.0, 5.0]),
    "scalar-runtime": (_GOOD_X, 5.0),
    "column-runtime": (_GOOD_X, [[4.0], [5.0], [6.0]]),
}


class TestCheckedOnce:
    """Each input is checked once, where it enters, and a rejected batch changes nothing."""

    def test_predict_and_fit_are_the_only_checked_doors(self):
        assert ArmModel.__abstractmethods__ == frozenset(
            {"update_vector", "predict_vector", "coefficients", "intercept"}
        )
        for name in ("update", "update_batch", "predict_batch", "clone_unfitted"):
            assert not hasattr(ArmModel, name)

    @pytest.mark.parametrize("bad", sorted(_BAD_BATCHES))
    @pytest.mark.parametrize(
        "cls", [LeastSquaresModel, RidgeModel], ids=lambda cls: f"{cls.__name__}.fit"
    )
    def test_rejected_batch_leaves_model_unchanged(self, cls, bad):
        model = cls(2).fit(_GOOD_X, [4.0, 5.0, 6.0])
        coefficients, intercept = model.coefficients, model.intercept
        X, y = _BAD_BATCHES[bad]
        with pytest.raises(ValueError):
            model.fit(X, y)
        assert np.array_equal(model.coefficients, coefficients)
        assert model.intercept == intercept
        assert model.n_observations == 3

    @pytest.mark.parametrize(
        "factory", [LeastSquaresModel, RidgeModel, RecursiveLeastSquaresModel]
    )
    def test_banditware_observations_skip_model_checks(self, monkeypatch, ndp, factory):
        calls = []

        def counted(*args, _check=base.check_feature_matrix, **kwargs):
            calls.append(args)
            return _check(*args, **kwargs)

        monkeypatch.setattr(base, "check_feature_matrix", counted)
        bandit = BanditWare(ndp, ["x0", "x1"], arm_model_factory=factory, seed=0)
        features = [{"x0": float(i), "x1": float(i % 3)} for i in range(6)]
        bandit.observe_batch(
            features, ["H0"] * 4 + ["H1"] * 2, [10.0, 12.0, 14.0, 16.0, 20.0, 22.0]
        )
        bandit.observe_vector(np.asarray([1.0, 2.0]), "H2", 5.0)
        bandit.observe({"x0": 3.0, "x1": 1.0}, "H0", 7.0)
        bandit.recommend({"x0": 3.0, "x1": 1.0})
        bandit.predict_runtimes({"x0": 3.0, "x1": 1.0})
        assert [model.n_observations for model in bandit.models] == [5, 2, 1]
        assert len(calls) == 0
        # The counter is live: the model's own checked door still checks.
        bandit.models[0].predict([1.0, 2.0])
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "factory", [LeastSquaresModel, RidgeModel, RecursiveLeastSquaresModel]
    )
    def test_checked_predict_matches_predict_vector(self, rng, factory):
        X, y = _generate_linear_data(rng, n=12)
        model = factory(2)
        model.update_rows(X, y)
        for row in X:
            assert model.predict(list(row)) == model.predict_vector(row)

    @pytest.mark.parametrize(
        "factory", [LeastSquaresModel, RidgeModel, RecursiveLeastSquaresModel]
    )
    def test_empty_batch_changes_nothing(self, factory):
        model = factory(2)
        model.update_rows(np.asarray(_GOOD_X), [4.0, 5.0, 6.0])
        coefficients, intercept = model.coefficients, model.intercept
        model.update_rows(np.empty((0, 2)), np.empty(0))
        assert np.array_equal(model.coefficients, coefficients)
        assert model.intercept == intercept
        assert model.n_observations == 3

    @pytest.mark.parametrize("factory", [LeastSquaresModel, RidgeModel])
    def test_empty_fit_resets_to_unfitted(self, factory):
        model = factory(2).fit(_GOOD_X, [4.0, 5.0, 6.0])
        model.fit(np.empty((0, 2)), np.empty(0))
        assert not model.is_fitted
        assert np.array_equal(model.coefficients, np.zeros(2))
        assert model.intercept == 0.0
        assert model.predict([1.0, 1.0]) == 0.0

    def test_custom_model_rows_go_through_update_vector(self):
        class Recorder(ArmModel):
            """Implements only the abstract members, like a user model."""

            def __init__(self, n_features):
                super().__init__(n_features)
                self.seen = []

            def update_vector(self, context, runtime):
                self.seen.append((list(context), runtime))
                self._n_observations += 1

            def predict_vector(self, context):
                return float(sum(context))

            coefficients = property(lambda self: np.ones(self.n_features))
            intercept = property(lambda self: 0.0)

        model = Recorder(2)
        model.update_rows(np.asarray(_GOOD_X), [4.0, 5.0, 6.0])
        assert model.seen == [(row, value) for row, value in zip(_GOOD_X, [4.0, 5.0, 6.0])]
        assert not hasattr(model, "uncertainty")
        # The inherited checked door hands predict_vector a checked context.
        assert model.predict([1.0, 2.0]) == 3.0
        with pytest.raises(ValueError):
            model.predict([1.0, float("nan")])
        with pytest.raises(TypeError):
            type("Partial", (ArmModel,), {"predict_vector": lambda self, c: 0.0})(2)
