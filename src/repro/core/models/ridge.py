"""L2-regularised per-arm model."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.models.base import ArmModel
from repro.utils.validation import check_positive

__all__ = ["RidgeModel"]


class RidgeModel(ArmModel):
    """Ridge regression ``argmin Σ (R - (wᵀx + b))² + λ‖w‖²``.

    Early bandit rounds give each arm only a handful of observations; plain
    least squares is then ill-conditioned (and the minimum-norm solution can
    swing wildly between rounds).  A small L2 penalty keeps the per-arm
    estimates stable, which is why the BanditWare facade exposes this model as
    an alternative ``arm_model`` choice and why the ablation benchmark
    compares it against the paper's plain OLS.

    The intercept is never penalised.

    Parameters
    ----------
    n_features:
        Context dimensionality.
    alpha:
        Regularisation strength λ (must be positive).
    """

    def __init__(self, n_features: int, alpha: float = 1.0):
        super().__init__(n_features)
        self.alpha = check_positive(alpha, "alpha")
        self._X: List[np.ndarray] = []
        self._y: List[float] = []
        self._w = np.zeros(self.n_features)
        self._b = 0.0

    # ------------------------------------------------------------------ #
    @property
    def coefficients(self) -> np.ndarray:
        return self._w.copy()

    @property
    def intercept(self) -> float:
        return float(self._b)

    # ------------------------------------------------------------------ #
    def _design_matrix(self) -> np.ndarray:
        """The stored contexts with the intercept column appended."""
        X = np.vstack(self._X)
        return np.hstack([X, np.ones((X.shape[0], 1))])

    def _refit(self) -> None:
        design = self._design_matrix()
        y = np.asarray(self._y, dtype=float)
        penalty = self.alpha * np.eye(design.shape[1])
        penalty[-1, -1] = 0.0  # do not shrink the intercept
        gram = design.T @ design + penalty
        solution = np.linalg.solve(gram, design.T @ y)
        self._w = solution[:-1]
        self._b = float(solution[-1])

    def update_vector(self, context: np.ndarray, runtime: float) -> None:
        self._X.append(context)
        self._y.append(runtime)
        self._n_observations += 1
        self._refit()

    def update_rows(self, X: np.ndarray, y: Sequence[float] | np.ndarray) -> None:
        """Ingest the checked rows with a single refit at the end.

        The ridge refit recomputes the penalised gram from the stored data, so
        deferring it until the last row yields exactly the coefficients that a
        sequence of :meth:`update_vector` calls would leave behind.
        """
        for row, value in zip(X, y):
            self._X.append(row)
            self._y.append(float(value))
            self._n_observations += 1
        if len(y):
            self._refit()

    def fit(self, X, y) -> "RidgeModel":
        """Replace stored data with ``(X, y)`` and refit."""
        X, y = self._checked_rows(X, y)
        self._X = [row for row in X]
        self._y = list(map(float, y))
        self._n_observations = len(self._y)
        if self._X:
            self._refit()
        else:
            self._w = np.zeros(self.n_features)
            self._b = 0.0
        return self

    def predict_vector(self, context: np.ndarray) -> float:
        return float(self._w @ context + self._b)
