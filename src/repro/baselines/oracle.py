"""The full-data fit: the paper's "best possible model" reference.

Per-hardware least squares fitted on the *entire* historical dataset ("the
theoretical best possible model that the contextual bandit can learn") is
the red/orange reference line of the RMSE and accuracy plots.  Accuracy
itself is measured against the workload model's ground truth, which only the
evaluation harness reads (:class:`~repro.evaluation.OnlineSimulation` and the
contention engine's accountant).
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.linear_regression import LinearRegressionRecommender
from repro.dataframe import DataFrame
from repro.hardware import HardwareCatalog

__all__ = ["FullFitOracle"]


class FullFitOracle(LinearRegressionRecommender):
    """Per-hardware least squares fitted on the complete historical dataset.

    This is simply a :class:`LinearRegressionRecommender` with a constructor
    that fits immediately, so benchmarks read as the paper describes:
    "We begin by fitting all our data (1316 samples) as the baseline".
    """

    def __init__(
        self,
        frame: DataFrame,
        catalog: HardwareCatalog,
        feature_names: Sequence[str],
        hardware_column: str = "hardware",
        runtime_column: str = "runtime_seconds",
        standardize: bool = False,
    ):
        # Unlike the 25-sample ensembles, the full-data fit is well determined,
        # so features are kept in their natural units by default: the per-arm
        # coefficients are then directly comparable to the workload models'
        # ground truth (Figure 3) and to the paper's plotted fits.
        super().__init__(catalog, feature_names, standardize=standardize)
        self.fit(frame, hardware_column=hardware_column, runtime_column=runtime_column)
        self._reference_scores = self.score(
            frame, hardware_column=hardware_column, runtime_column=runtime_column
        )

    @property
    def reference_rmse(self) -> float:
        """RMSE of the full fit on its own training data (the paper's reference line)."""
        return self._reference_scores["rmse"]

    @property
    def reference_r2(self) -> float:
        """R² of the full fit on its own training data."""
        return self._reference_scores["r2"]
