"""Baseline recommenders the paper compares BanditWare against.

* :class:`~repro.baselines.linear_regression.LinearRegressionRecommender` --
  the offline recommender of Sections 4.2/4.3: fit one linear model per
  hardware from a (small) training subset, then recommend the hardware with
  the lowest predicted runtime.  The paper trains 100 such models on
  25-sample subsets and reports the spread of their RMSE/R² (Figures 5 and 8).
* :class:`~repro.baselines.oracle.FullFitOracle` -- the "theoretical best
  possible model" the paper fits on all 1316 samples and uses as the RMSE
  reference line in Figures 4 and 7.
"""

from repro.baselines.linear_regression import (
    LinearRegressionRecommender,
    RegressionEnsembleResult,
    train_regression_ensemble,
)
from repro.baselines.oracle import FullFitOracle

__all__ = [
    "LinearRegressionRecommender",
    "RegressionEnsembleResult",
    "train_regression_ensemble",
    "FullFitOracle",
]
