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
    observations assigned to the arm, and expose:

    * :meth:`update` -- incorporate one observation.
    * :meth:`predict` -- point estimate of the runtime for a context.
    * :meth:`uncertainty` -- (optional) standard-error-style score used by
      optimism/posterior-sampling policies; models that do not track
      uncertainty return ``inf`` until fitted and ``0`` afterwards.

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

    def _check_context(self, x: Sequence[float] | np.ndarray) -> np.ndarray:
        arr = check_feature_matrix(x, name="x", n_features=self.n_features)
        if arr.shape[0] != 1:
            raise ValueError(f"expected a single context vector, got {arr.shape[0]} rows")
        return arr[0]

    def _checked_row(
        self, x: Sequence[float] | np.ndarray, runtime: float
    ) -> Tuple[np.ndarray, float]:
        """``(x, runtime)`` as a context vector and a float, for :meth:`update`.

        Raises ``ValueError`` unless ``x`` is one finite context of length
        :attr:`n_features` and ``runtime`` is finite and non-negative.
        """
        context = self._check_context(x)
        runtime = float(runtime)
        if not np.isfinite(runtime) or runtime < 0:
            raise ValueError(f"runtime must be a finite non-negative number, got {runtime}")
        return context, runtime

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def update(self, x: Sequence[float] | np.ndarray, runtime: float) -> None:
        """Incorporate one ``(context, observed runtime)`` pair."""

    def update_vector(self, context: np.ndarray, runtime: float) -> None:
        """:meth:`update` for a context and runtime the caller already checked.

        The caller (a built-in :meth:`update`, :meth:`update_rows`, or
        :meth:`~repro.core.BanditWare.observe_vector`) guarantees ``context``
        is a finite 1-D float array of length :attr:`n_features` and
        ``runtime`` a finite non-negative float; nothing is checked here.
        The built-in models ingest directly; the default delegates to
        :meth:`update`, so a custom model that implements only :meth:`update`
        stays correct.
        """
        self.update(context, runtime)

    @abc.abstractmethod
    def predict(self, x: Sequence[float] | np.ndarray) -> float:
        """Point estimate of the runtime for context ``x`` (seconds)."""

    def predict_vector(self, context: np.ndarray) -> float:
        """Point estimate for an already-validated 1-D context vector.

        This is the hot path used by the policies (the façade validates the
        context once); overrides must stay numerically identical to
        :meth:`predict`.  The default delegates to :meth:`predict` so custom
        (possibly non-linear) models stay correct; the built-in linear models
        override it with validation-free arithmetic.
        """
        return float(self.predict(context))

    def uncertainty(self, x: Sequence[float] | np.ndarray) -> float:
        """A non-negative uncertainty score for the prediction at ``x``.

        The default implementation knows nothing about uncertainty: it returns
        ``inf`` before the first observation (forcing optimistic policies to
        try the arm) and ``0`` afterwards.
        """
        self._check_context(x)
        return float("inf") if not self.is_fitted else 0.0

    @property
    @abc.abstractmethod
    def coefficients(self) -> np.ndarray:
        """Current slope estimates ``w`` (length ``n_features``)."""

    @property
    @abc.abstractmethod
    def intercept(self) -> float:
        """Current intercept estimate ``b``."""

    # ------------------------------------------------------------------ #
    def predict_batch(self, X: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        """Vectorised point estimates over the rows of an ``(n, m)`` design matrix.

        Every model in the library is linear in the context, so the default
        implementation evaluates ``X @ w + b`` in one matrix product.
        Subclasses with extra structure override this (and must stay
        numerically consistent with calling :meth:`predict` row by row).
        """
        X = check_feature_matrix(X, name="X", n_features=self.n_features)
        return X @ self.coefficients + self.intercept

    def _checked_rows(
        self,
        X: Sequence[Sequence[float]] | np.ndarray,
        y: Sequence[float] | np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(X, y)`` as a float ``(n, n_features)`` matrix and a float vector.

        Raises ``ValueError`` unless every feature is finite, ``y`` is 1-D,
        every runtime is finite and non-negative, and ``X`` and ``y`` have the
        same number of rows.  It runs before any state changes, so a rejected
        ``fit`` or :meth:`update_batch` leaves the model as it was.
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
        """:meth:`update_batch` for rows the caller already checked.

        The caller (:meth:`update_batch`, or
        :meth:`~repro.core.BanditWare.observe_batch`, which checks every row
        where it enters) guarantees ``X`` is a finite float
        ``(n, n_features)`` matrix and ``y`` holds ``n`` finite non-negative
        runtimes; nothing is checked here.  The default feeds the rows to
        :meth:`update_vector` in order.  Models whose refit cost does not
        depend on the number of new rows override it to ingest every row and
        refit once, which is exactly equivalent because only the final
        coefficients are observable.
        """
        for row, value in zip(X, y):
            self.update_vector(row, float(value))

    def update_batch(
        self,
        X: Sequence[Sequence[float]] | np.ndarray,
        y: Sequence[float] | np.ndarray,
    ) -> None:
        """Incorporate many ``(context, runtime)`` pairs at once.

        Every row is checked (:meth:`_checked_rows`) before any is ingested,
        so a rejected batch leaves the model unchanged; :meth:`update_rows`
        then ingests them.  The final state is what a sequence of
        :meth:`update` calls in row order would leave behind.
        """
        self.update_rows(*self._checked_rows(X, y))

    def coefficient_dict(self, feature_names: Sequence[str]) -> Dict[str, float]:
        """Named coefficients ``{"w_<feature>": ..., "b": ...}``."""
        if len(feature_names) != self.n_features:
            raise ValueError(
                f"expected {self.n_features} feature names, got {len(feature_names)}"
            )
        out = {f"w_{name}": float(w) for name, w in zip(feature_names, self.coefficients)}
        out["b"] = float(self.intercept)
        return out

    def clone_unfitted(self) -> "ArmModel":
        """A fresh, unfitted model with the same hyper-parameters."""
        return type(self)(self.n_features)  # pragma: no cover - overridden where needed
