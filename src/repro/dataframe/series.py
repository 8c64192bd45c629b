"""A named 1-D column backed by a NumPy array."""

from __future__ import annotations

from typing import Any, Callable, Sequence, Union

import numpy as np

__all__ = ["Series"]

_COMPARISON_OPS = {
    "__eq__": np.equal,
    "__ne__": np.not_equal,
    "__lt__": np.less,
    "__le__": np.less_equal,
    "__gt__": np.greater,
    "__ge__": np.greater_equal,
}


class Series:
    """A named, immutable-length column of homogeneous values.

    Parameters
    ----------
    data:
        Any sequence convertible to a 1-D NumPy array.  Object (string)
        columns are supported; numeric columns are stored as ``float64`` or
        ``int64`` depending on the input.
    name:
        Column name.  Defaults to ``""``.

    Notes
    -----
    Unlike pandas there is no index: positional integer indexing only.  The
    comparison operators return plain NumPy arrays of bools, used as row
    masks (``frame.filter(frame["size"] >= 5000)``); a column's values are
    reached through :attr:`values`, :meth:`to_numpy` or :meth:`to_list`.
    """

    __array_priority__ = 100  # make numpy defer to our reflected comparisons

    def __init__(self, data: Union[Sequence[Any], np.ndarray], name: str = ""):
        arr = np.asarray(data)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise ValueError(f"Series data must be 1-D, got shape {arr.shape}")
        # Normalise string-ish columns to object dtype so mixed content works.
        if arr.dtype.kind in ("U", "S"):
            arr = arr.astype(object)
        self._values = arr
        self.name = str(name)

    # ------------------------------------------------------------------ #
    # Basic container protocol
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """The underlying NumPy array (a view, not a copy)."""
        return self._values

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._values[int(key)]
        if isinstance(key, slice):
            return Series(self._values[key], name=self.name)
        key_arr = np.asarray(key)
        return Series(self._values[key_arr], name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = ", ".join(repr(v) for v in self._values[:8])
        suffix = ", ..." if len(self) > 8 else ""
        return f"Series(name={self.name!r}, n={len(self)}, [{head}{suffix}])"

    def to_list(self) -> list:
        return self._values.tolist()

    def to_numpy(self, dtype=None) -> np.ndarray:
        if dtype is None:
            return self._values.copy()
        return self._values.astype(dtype)

    # ------------------------------------------------------------------ #
    # Element-wise comparisons
    # ------------------------------------------------------------------ #
    def _coerce_other(self, other):
        if isinstance(other, Series):
            if len(other) != len(self):
                raise ValueError(
                    f"cannot align series of length {len(self)} and {len(other)}"
                )
            return other._values
        return other

    # Hashing must be disabled because __eq__ is element-wise.
    __hash__ = None  # type: ignore[assignment]


def _make_comparison(name: str, ufunc: np.ufunc) -> Callable:
    def method(self: Series, other):
        return np.asarray(ufunc(self._values, self._coerce_other(other)), dtype=bool)

    method.__name__ = name
    return method


for _name, _ufunc in _COMPARISON_OPS.items():
    setattr(Series, _name, _make_comparison(_name, _ufunc))
