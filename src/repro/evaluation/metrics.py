"""Prediction-quality metrics."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["rmse", "r2_score"]


def _paired_arrays(actual, predicted) -> tuple:
    a = np.asarray(actual, dtype=float).ravel()
    p = np.asarray(predicted, dtype=float).ravel()
    if a.shape != p.shape:
        raise ValueError(f"actual has shape {a.shape} but predicted has shape {p.shape}")
    if a.size == 0:
        raise ValueError("metrics require at least one observation")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise ValueError("metrics require finite inputs")
    return a, p


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Root mean squared error (the paper's primary prediction metric)."""
    a, p = _paired_arrays(actual, predicted)
    return float(np.sqrt(np.mean((a - p) ** 2)))


def r2_score(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination R².

    Follows the standard convention: 1 is a perfect fit, 0 matches predicting
    the mean, negative values are worse than the mean.  When the actuals are
    constant the score is 1.0 for exact predictions and 0.0 otherwise.
    """
    a, p = _paired_arrays(actual, predicted)
    ss_res = float(np.sum((a - p) ** 2))
    ss_tot = float(np.sum((a - np.mean(a)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot
