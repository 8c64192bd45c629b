"""Recursive (online) least-squares per-arm model.

Algorithm 1 refits from the arm's full data store every round; that is O(n·m²)
per update and requires keeping every observation.  The recursive
least-squares (RLS) formulation maintains the inverse Gram matrix directly via
the Sherman–Morrison identity, giving O(m²) updates with no stored data and
identical predictions to ridge regression on the same stream.  Its posterior
covariance ``A⁻¹`` drives :meth:`~RecursiveLeastSquaresModel.uncertainty` and
:meth:`~RecursiveLeastSquaresModel.sample_prediction`, which LinUCB and
Thompson sampling use.
"""

from __future__ import annotations

import numpy as np

from repro.core.models.base import ArmModel
from repro.utils.validation import check_positive

__all__ = ["RecursiveLeastSquaresModel"]


class RecursiveLeastSquaresModel(ArmModel):
    """Sherman–Morrison recursive least squares with an un-penalised intercept column.

    Maintains ``A = λI + Σ zᵢzᵢᵀ`` and ``c = Σ zᵢ·Rᵢ`` for augmented contexts
    ``z = [x, 1]``, storing ``A⁻¹`` directly.

    Parameters
    ----------
    n_features:
        Context dimensionality (excluding the intercept column).
    regularization:
        Initial λ on the diagonal of ``A`` (ridge prior precision).
    noise_std:
        Assumed observation-noise standard deviation; scales
        :meth:`uncertainty` and :meth:`sample_prediction`.
    """

    def __init__(self, n_features: int, regularization: float = 1.0, noise_std: float = 1.0):
        super().__init__(n_features)
        self.regularization = check_positive(regularization, "regularization")
        self.noise_std = check_positive(noise_std, "noise_std")
        dim = self.n_features + 1
        self._a_inv = np.eye(dim) / self.regularization
        self._c = np.zeros(dim)
        self._theta = np.zeros(dim)

    # ------------------------------------------------------------------ #
    @property
    def coefficients(self) -> np.ndarray:
        return self._theta[:-1].copy()

    @property
    def intercept(self) -> float:
        return float(self._theta[-1])

    # ------------------------------------------------------------------ #
    def update_vector(self, context: np.ndarray, runtime: float) -> None:
        z = np.concatenate([context, [1.0]])
        # Sherman–Morrison rank-1 update of A⁻¹.
        a_inv_z = self._a_inv @ z
        denom = 1.0 + float(z @ a_inv_z)
        self._a_inv -= np.outer(a_inv_z, a_inv_z) / denom
        self._c += z * runtime
        self._theta = self._a_inv @ self._c
        self._n_observations += 1

    def predict_vector(self, context: np.ndarray) -> float:
        z = np.concatenate([context, [1.0]])
        return float(self._theta @ z)

    def uncertainty(self, context: np.ndarray) -> float:
        """Posterior predictive standard deviation ``σ·sqrt(zᵀA⁻¹z)``."""
        z = np.concatenate([context, [1.0]])
        return float(self.noise_std * np.sqrt(max(z @ self._a_inv @ z, 0.0)))

    def sample_prediction(self, context: np.ndarray, rng: np.random.Generator) -> float:
        """Draw a runtime prediction for a checked context from the coefficient posterior."""
        z = np.concatenate([context, [1.0]])
        cov = (self.noise_std**2) * self._a_inv
        # Symmetrise to protect the Cholesky-based sampler from rounding drift.
        cov = 0.5 * (cov + cov.T)
        theta_sample = rng.multivariate_normal(self._theta, cov, method="eigh")
        return float(theta_sample @ z)
