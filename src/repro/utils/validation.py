"""Argument-validation helpers shared across the library.

These helpers keep error messages consistent and make the public API fail
loudly on misuse (negative runtimes, malformed feature matrices, non-integer
counts) instead of silently producing nonsense recommendations.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Any, Sequence

import numpy as np

__all__ = [
    "all_finite",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
    "check_count",
    "check_priority",
    "check_feature_matrix",
]


def all_finite(values: Sequence[float]) -> bool:
    """Whether every float in ``values`` is finite.

    A finite sum implies finite terms, so the per-element scan only runs
    when the sum is not (a non-finite term or a floating-point overflow).
    For a handful of Python floats this is several times cheaper than
    ``np.isfinite(...).all()``.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def check_positive(value: float, name: str) -> float:
    """Raise :class:`ValueError` unless ``value`` is a finite number > 0."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Raise :class:`ValueError` unless ``value`` is a finite number >= 0."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Raise :class:`ValueError` unless ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_in_range(
    value: float,
    name: str,
    low: float = -np.inf,
    high: float = np.inf,
    inclusive: bool = True,
) -> float:
    """Raise :class:`ValueError` unless ``low (<|<=) value (<|<=) high``."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        op = "<=" if inclusive else "<"
        raise ValueError(f"{name} must satisfy {low} {op} {name} {op} {high}, got {value!r}")
    return value


def check_count(value: Any, name: str, minimum: int = 1) -> int:
    """Raise :class:`ValueError` unless ``value`` is an integer >= ``minimum`` (not a bool).

    NumPy integers pass; the count comes back as a plain ``int``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_priority(value: Any) -> int:
    """Return a pod priority class as an ``int``.

    Raises :class:`TypeError` unless ``value`` is an integer; a ``bool`` is
    rejected too.
    """
    if isinstance(value, bool):
        raise TypeError(f"priority must be an integer, not a bool ({value!r})")
    return operator.index(value)


def check_feature_matrix(x: Any, name: str = "X", n_features: int | None = None) -> np.ndarray:
    """Coerce ``x`` into a 2-D float array of shape ``(n_samples, n_features)``.

    A 1-D input is interpreted as a single sample.  Non-finite entries raise.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if n_features is not None and arr.shape[1] != n_features:
        raise ValueError(
            f"{name} has {arr.shape[1]} features but {n_features} were expected"
        )
    return arr
