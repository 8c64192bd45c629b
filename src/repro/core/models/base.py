"""Interface shared by all per-arm runtime models."""

from __future__ import annotations

import abc
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_feature_matrix

__all__ = ["ArmModel"]


class ArmModel(abc.ABC):
    """A runtime model for one hardware configuration (one bandit arm).

    Implementations estimate ``R(x) ≈ wᵀ x + b`` from the ``(x, runtime)``
    observations assigned to the arm.  Each operation has one
    implementation, and only two doors check their inputs: :meth:`predict`
    and ``fit``.  Everything else trusts its caller, which checked the input
    where it entered (:class:`~repro.core.BanditWare`, the policies behind
    it, and the offline baselines): a context is a finite 1-D float array of
    length :attr:`n_features`, and a runtime a finite non-negative float.

    * :meth:`update_vector` / :meth:`update_rows` -- incorporate one or many
      observations;
    * :meth:`predict_vector` -- point estimate of the runtime for a context.

    Only :class:`~repro.core.models.online_linear.RecursiveLeastSquaresModel`
    keeps a posterior (``uncertainty`` and ``sample_prediction``), which is
    why LinUCB and Thompson sampling take RLS arms only.

    Parameters
    ----------
    n_features:
        Dimensionality of the context vector ``x``.
    """

    def __init__(self, n_features: int):
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}")
        self.n_features = int(n_features)
        self._n_observations = 0

    # ------------------------------------------------------------------ #
    @property
    def n_observations(self) -> int:
        """Number of observations the model has been updated with."""
        return self._n_observations

    @property
    def is_fitted(self) -> bool:
        """Whether the model has seen at least one observation."""
        return self._n_observations > 0

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def update_vector(self, context: np.ndarray, runtime: float) -> None:
        """Incorporate one checked ``(context, observed runtime)`` pair."""

    @abc.abstractmethod
    def predict_vector(self, context: np.ndarray) -> float:
        """Point estimate of the runtime (seconds) for a checked context."""

    def predict(self, x: Sequence[float] | np.ndarray) -> float:
        """:meth:`predict_vector` behind a check of ``x``.

        Raises ``ValueError`` unless ``x`` is one finite context of length
        :attr:`n_features`.
        """
        arr = check_feature_matrix(x, name="x", n_features=self.n_features)
        if arr.shape[0] != 1:
            raise ValueError(f"expected a single context vector, got {arr.shape[0]} rows")
        return self.predict_vector(arr[0])

    @property
    @abc.abstractmethod
    def coefficients(self) -> np.ndarray:
        """Current slope estimates ``w`` (length ``n_features``)."""

    @property
    @abc.abstractmethod
    def intercept(self) -> float:
        """Current intercept estimate ``b``."""

    # ------------------------------------------------------------------ #
    def _checked_rows(
        self,
        X: Sequence[Sequence[float]] | np.ndarray,
        y: Sequence[float] | np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(X, y)`` as a float ``(n, n_features)`` matrix and a float vector.

        Raises ``ValueError`` unless every feature is finite, ``y`` is 1-D,
        every runtime is finite and non-negative, and ``X`` and ``y`` have the
        same number of rows.  It runs before any state changes, so a rejected
        ``fit`` leaves the model as it was.
        """
        X = check_feature_matrix(X, name="X", n_features=self.n_features)
        y = np.asarray(y, dtype=float)
        if y.ndim != 1:
            raise ValueError(f"y must be a 1-D vector of runtimes, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} values")
        if y.size and (not np.all(np.isfinite(y)) or np.any(y < 0)):
            raise ValueError("y must contain finite non-negative runtimes")
        return X, y

    def update_rows(self, X: np.ndarray, y: Sequence[float] | np.ndarray) -> None:
        """Incorporate many checked ``(context, runtime)`` rows, in order.

        The caller (:meth:`~repro.core.BanditWare.observe_batch`, which
        checks every row where it enters) guarantees ``X`` is a finite float
        ``(n, n_features)`` matrix and ``y`` holds ``n`` finite non-negative
        runtimes.  The default feeds the rows to :meth:`update_vector` in
        order.  Models whose refit cost does not depend on the number of new
        rows override it to ingest every row and refit once, which is
        exactly equivalent because only the final coefficients are
        observable.
        """
        for row, value in zip(X, y):
            self.update_vector(row, float(value))

    def coefficient_dict(self, feature_names: Sequence[str]) -> Dict[str, float]:
        """Named coefficients ``{"w_<feature>": ..., "b": ...}``."""
        if len(feature_names) != self.n_features:
            raise ValueError(
                f"expected {self.n_features} feature names, got {len(feature_names)}"
            )
        out = {f"w_{name}": float(w) for name, w in zip(feature_names, self.coefficients)}
        out["b"] = float(self.intercept)
        return out
