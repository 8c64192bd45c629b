"""The offline linear-regression recommender baseline (Sections 4.2 / 4.3).

The paper's comparison protocol is: draw a small training subset (25 rows),
fit a linear runtime model per hardware on it, and evaluate the model on the
full dataset; repeat 100 times and report the spread of RMSE and R².  This
module implements both the single recommender and the 100-model ensemble
experiment behind Figures 5 and 8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.core.models import LeastSquaresModel
from repro.dataframe import DataFrame
from repro.evaluation.metrics import r2_score, rmse
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_feature_matrix

__all__ = [
    "LinearRegressionRecommender",
    "RegressionEnsembleResult",
    "train_regression_ensemble",
]


class LinearRegressionRecommender:
    """Fit one least-squares runtime model per hardware, then recommend the fastest.

    Parameters
    ----------
    catalog:
        Hardware configurations that may be recommended.
    feature_names:
        Ordered workflow feature names (the model inputs).
    standardize:
        Standardise features to zero mean / unit variance using statistics of
        the training subset (default).  The model class is unchanged (the
        scaling is linear), but tiny training subsets with wildly-scaled
        features -- e.g. BP3D's ``run_max_mem_rss_bytes`` at ~1e10 next to
        moisture percentages -- no longer produce astronomically bad
        extrapolations.

    Notes
    -----
    Unlike :class:`~repro.core.BanditWare` this recommender is purely offline:
    it must be ``fit`` on a historical table before it can recommend, and it
    never updates afterwards.  That is exactly the property the paper
    contrasts BanditWare's online learning against.
    """

    def __init__(
        self,
        catalog: HardwareCatalog,
        feature_names: Sequence[str],
        standardize: bool = True,
    ):
        if not feature_names:
            raise ValueError("feature_names must contain at least one feature")
        self.catalog = catalog
        self.feature_names = [str(n) for n in feature_names]
        self.standardize = bool(standardize)
        self._models: Dict[str, LeastSquaresModel] = {}
        self._fitted = False
        self._feature_mean = np.zeros(len(self.feature_names))
        self._feature_std = np.ones(len(self.feature_names))

    # ------------------------------------------------------------------ #
    def _context_matrix(self, frame: DataFrame) -> np.ndarray:
        raw = frame.to_numpy(self.feature_names, dtype=float)
        return (raw - self._feature_mean) / self._feature_std

    def _fit_scaler(self, frame: DataFrame) -> None:
        raw = frame.to_numpy(self.feature_names, dtype=float)
        if self.standardize and len(frame) > 1:
            self._feature_mean = raw.mean(axis=0)
            std = raw.std(axis=0)
            self._feature_std = np.where(std > 0, std, 1.0)
        else:
            self._feature_mean = np.zeros(raw.shape[1])
            self._feature_std = np.ones(raw.shape[1])

    def fit(
        self,
        frame: DataFrame,
        hardware_column: str = "hardware",
        runtime_column: str = "runtime_seconds",
    ) -> "LinearRegressionRecommender":
        """Fit per-hardware models from a run-history table.

        Hardware configurations with no rows keep an unfitted (all-zero)
        model, mirroring how a recommender trained on sparse data behaves.
        """
        for column in (hardware_column, runtime_column, *self.feature_names):
            if column not in frame:
                raise KeyError(f"training frame is missing column {column!r}")
        self._fit_scaler(frame)
        self._models = {
            hw.name: LeastSquaresModel(len(self.feature_names)) for hw in self.catalog
        }
        for hw_name, group in frame.groupby(hardware_column):
            name = str(hw_name[0])
            if name not in self._models:
                continue
            X = self._context_matrix(group)
            y = group[runtime_column].to_numpy(float)
            self._models[name].fit(X, y)
        self._fitted = True
        return self

    # ------------------------------------------------------------------ #
    def predict_runtimes(self, features: Dict[str, float]) -> Dict[str, float]:
        """Predicted runtime of a workflow on every hardware configuration."""
        self._require_fitted()
        raw = np.asarray([float(features[name]) for name in self.feature_names])
        x = check_feature_matrix((raw - self._feature_mean) / self._feature_std, name="x")[0]
        return {name: model.predict_vector(x) for name, model in self._models.items()}

    def recommend(self, features: Dict[str, float]) -> HardwareConfig:
        """The hardware with the lowest predicted runtime."""
        predictions = self.predict_runtimes(features)
        best = min(predictions, key=lambda name: (predictions[name], self.catalog.index_of(name)))
        return self.catalog[best]

    def model_for(self, hardware: Union[str, HardwareConfig]) -> LeastSquaresModel:
        """The fitted model of one hardware configuration."""
        self._require_fitted()
        name = hardware.name if isinstance(hardware, HardwareConfig) else str(hardware)
        return self._models[name]

    # ------------------------------------------------------------------ #
    def score(
        self,
        frame: DataFrame,
        hardware_column: str = "hardware",
        runtime_column: str = "runtime_seconds",
    ) -> Dict[str, float]:
        """Pooled RMSE and R² of runtime predictions over ``frame``.

        Each row is predicted with the model of the hardware it actually ran
        on, so the score reflects runtime-prediction quality (the quantity
        Figures 5 and 8 report), not recommendation accuracy.  The whole
        feature matrix is checked once; each row then takes the trusted
        :meth:`~repro.core.models.ArmModel.predict_vector`.
        """
        self._require_fitted()
        X = check_feature_matrix(self._context_matrix(frame))
        hardware = frame[hardware_column].values
        actual = frame[runtime_column].to_numpy(float)
        predicted = np.empty(len(frame))
        for i in range(len(frame)):
            predicted[i] = self._models[str(hardware[i])].predict_vector(X[i])
        return {"rmse": rmse(actual, predicted), "r2": r2_score(actual, predicted)}

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(
                "this recommender has not been fitted; call fit(frame) before using it"
            )


@dataclass
class RegressionEnsembleResult:
    """Aggregate outcome of the 100-model subset-training experiment.

    Attributes
    ----------
    rmse_scores, r2_scores:
        One entry per trained model, evaluated on the full dataset.
    train_seconds:
        Wall-clock fit time of each model.
    n_samples:
        Training-subset size used for every model.
    """

    rmse_scores: np.ndarray
    r2_scores: np.ndarray
    train_seconds: np.ndarray
    n_samples: int

    def summary(self) -> Dict[str, float]:
        """The statistics the paper quotes: min/max/mean/range of RMSE and R²."""
        return {
            "rmse_min": float(np.min(self.rmse_scores)),
            "rmse_max": float(np.max(self.rmse_scores)),
            "rmse_mean": float(np.mean(self.rmse_scores)),
            "rmse_range": float(np.ptp(self.rmse_scores)),
            "r2_min": float(np.min(self.r2_scores)),
            "r2_max": float(np.max(self.r2_scores)),
            "r2_mean": float(np.mean(self.r2_scores)),
            "r2_range": float(np.ptp(self.r2_scores)),
            "train_seconds_min": float(np.min(self.train_seconds)),
            "train_seconds_max": float(np.max(self.train_seconds)),
            "train_seconds_mean": float(np.mean(self.train_seconds)),
        }


def train_regression_ensemble(
    frame: DataFrame,
    catalog: HardwareCatalog,
    feature_names: Sequence[str],
    n_models: int = 100,
    n_samples: int = 25,
    seed: SeedLike = None,
    hardware_column: str = "hardware",
    runtime_column: str = "runtime_seconds",
    evaluation_frame: Optional[DataFrame] = None,
) -> RegressionEnsembleResult:
    """Train ``n_models`` recommenders on random ``n_samples``-row subsets.

    Each model is evaluated on ``evaluation_frame`` (defaults to the full
    ``frame``), reproducing the paper's protocol for Figures 5 and 8.
    """
    if n_models < 1:
        raise ValueError(f"n_models must be >= 1, got {n_models}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if n_samples > len(frame):
        raise ValueError(
            f"cannot draw {n_samples}-row training subsets from a {len(frame)}-row frame"
        )
    rng = as_generator(seed)
    evaluation_frame = evaluation_frame if evaluation_frame is not None else frame
    rmse_scores = np.empty(n_models)
    r2_scores = np.empty(n_models)
    train_seconds = np.empty(n_models)
    for i in range(n_models):
        subset = frame.sample(n_samples, rng)
        recommender = LinearRegressionRecommender(catalog, feature_names)
        start = time.perf_counter()
        recommender.fit(subset, hardware_column=hardware_column, runtime_column=runtime_column)
        train_seconds[i] = time.perf_counter() - start
        scores = recommender.score(
            evaluation_frame, hardware_column=hardware_column, runtime_column=runtime_column
        )
        rmse_scores[i] = scores["rmse"]
        r2_scores[i] = scores["r2"]
    return RegressionEnsembleResult(
        rmse_scores=rmse_scores,
        r2_scores=r2_scores,
        train_seconds=train_seconds,
        n_samples=n_samples,
    )
