"""An ordered mapping of equal-length columns."""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dataframe.series import Series

__all__ = ["DataFrame"]


class DataFrame:
    """A small columnar table.

    Parameters
    ----------
    data:
        A mapping ``{column_name: sequence}`` or a list of row dictionaries.
        All columns must have equal length.
    columns:
        Optional explicit column order.  When ``data`` is a list of dicts this
        also selects which keys become columns.

    Examples
    --------
    >>> df = DataFrame({"size": [100, 200], "runtime": [1.0, 2.5]})
    >>> df.shape
    (2, 2)
    >>> df.filter(df["size"] > 150).shape
    (1, 2)
    """

    def __init__(
        self,
        data: Union[Mapping[str, Sequence[Any]], Sequence[Mapping[str, Any]], None] = None,
        columns: Optional[Sequence[str]] = None,
    ):
        self._columns: Dict[str, Series] = {}
        if data is None:
            data = {}
        if isinstance(data, Mapping):
            names = list(columns) if columns is not None else list(data.keys())
            for name in names:
                if name not in data:
                    raise KeyError(f"column {name!r} not present in data")
                self._columns[str(name)] = Series(np.asarray(data[name]), name=str(name))
        elif isinstance(data, Sequence):
            rows = list(data)
            if rows and not isinstance(rows[0], Mapping):
                raise TypeError("list input must contain row dictionaries")
            if columns is not None:
                names = list(columns)
            else:
                names = []
                for row in rows:
                    for key in row:
                        if key not in names:
                            names.append(key)
            for name in names:
                values = [row.get(name) for row in rows]
                self._columns[str(name)] = Series(np.asarray(values), name=str(name))
        else:
            raise TypeError(f"unsupported data type {type(data).__name__}")
        self._check_lengths()

    # ------------------------------------------------------------------ #
    # Invariants and basic properties
    # ------------------------------------------------------------------ #
    def _check_lengths(self) -> None:
        lengths = {name: len(col) for name, col in self._columns.items()}
        if lengths and len(set(lengths.values())) > 1:
            raise ValueError(f"columns have unequal lengths: {lengths}")

    @property
    def columns(self) -> List[str]:
        """Column names in order."""
        return list(self._columns.keys())

    @property
    def shape(self) -> tuple:
        n_rows = len(next(iter(self._columns.values()))) if self._columns else 0
        return (n_rows, len(self._columns))

    def __len__(self) -> int:
        return self.shape[0]

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataFrame(shape={self.shape}, columns={self.columns})"

    # ------------------------------------------------------------------ #
    # Column access / assignment
    # ------------------------------------------------------------------ #
    def __getitem__(self, key):
        if isinstance(key, str):
            try:
                return self._columns[key]
            except KeyError:
                raise KeyError(f"no column named {key!r}; available: {self.columns}") from None
        if isinstance(key, (list, tuple)) and all(isinstance(k, str) for k in key):
            return self.select(list(key))
        if isinstance(key, np.ndarray) and key.dtype == bool:
            return self.filter(key)
        raise TypeError(
            "DataFrame indexing accepts a column name, a list of column names, "
            f"or a boolean mask; got {type(key).__name__}"
        )

    def __setitem__(self, name: str, values: Union[Series, Sequence[Any], np.ndarray, float, int]) -> None:
        if np.isscalar(values):
            values = np.full(len(self) if self._columns else 1, values)
        if isinstance(values, Series):
            values = values.values
        series = Series(np.asarray(values), name=str(name))
        if self._columns and len(series) != len(self):
            raise ValueError(
                f"column {name!r} has length {len(series)} but frame has {len(self)} rows"
            )
        self._columns[str(name)] = series

    def drop(self, columns: Union[str, Sequence[str]]) -> "DataFrame":
        """Return a new frame without the given column(s)."""
        if isinstance(columns, str):
            columns = [columns]
        missing = [c for c in columns if c not in self._columns]
        if missing:
            raise KeyError(f"cannot drop missing columns {missing}; available: {self.columns}")
        keep = [c for c in self.columns if c not in set(columns)]
        return self.select(keep)

    def select(self, columns: Sequence[str]) -> "DataFrame":
        """Return a new frame with only ``columns`` (in the given order)."""
        data = {}
        for name in columns:
            if name not in self._columns:
                raise KeyError(f"no column named {name!r}; available: {self.columns}")
            data[name] = self._columns[name].values
        return DataFrame(data)

    # ------------------------------------------------------------------ #
    # Row access
    # ------------------------------------------------------------------ #
    def row(self, index: int) -> Dict[str, Any]:
        """Return row ``index`` as a plain dict."""
        n = len(self)
        if index < -n or index >= n:
            raise IndexError(f"row index {index} out of range for frame with {n} rows")
        return {name: col[index] for name, col in self._columns.items()}

    def iterrows(self) -> Iterator[Dict[str, Any]]:
        """Iterate over rows as dictionaries."""
        for i in range(len(self)):
            yield self.row(i)

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(np.arange(min(n, len(self))))

    def take(self, indices: Sequence[int]) -> "DataFrame":
        """Return a new frame with the rows at ``indices`` (in that order)."""
        idx = np.asarray(indices, dtype=int)
        return DataFrame({name: col.values[idx] for name, col in self._columns.items()})

    def filter(self, mask: Union[np.ndarray, Series, Sequence[bool]]) -> "DataFrame":
        """Return rows where ``mask`` is true."""
        if isinstance(mask, Series):
            mask = mask.values
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError(f"mask has shape {mask.shape}, expected ({len(self)},)")
        return DataFrame({name: col.values[mask] for name, col in self._columns.items()})

    def sample(self, n: int, rng: np.random.Generator, replace: bool = False) -> "DataFrame":
        """Return ``n`` randomly sampled rows using ``rng``."""
        if not replace and n > len(self):
            raise ValueError(f"cannot sample {n} rows without replacement from {len(self)}")
        idx = rng.choice(len(self), size=n, replace=replace)
        return self.take(idx)

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #
    def to_numpy(self, columns: Optional[Sequence[str]] = None, dtype=float) -> np.ndarray:
        """Return selected columns stacked into a 2-D array of ``dtype``."""
        names = list(columns) if columns is not None else self.columns
        if not names:
            return np.empty((len(self), 0), dtype=dtype)
        arrays = [self[name].to_numpy(dtype) for name in names]
        return np.column_stack(arrays)

    # ------------------------------------------------------------------ #
    # Grouping
    # ------------------------------------------------------------------ #
    def groupby(self, by: Union[str, Sequence[str]]) -> List[Tuple[Tuple[Any, ...], "DataFrame"]]:
        """Split rows by one or more key columns (Figure 1's per-hardware sub-frames).

        Returns ``(key_tuple, sub_frame)`` pairs in first-appearance order of
        each key combination.  The keys are checked here, at the call.
        """
        keys = [by] if isinstance(by, str) else list(by)
        if not keys:
            raise ValueError("groupby requires at least one key column")
        for key in keys:
            if key not in self._columns:
                raise KeyError(f"groupby key {key!r} is not a column; available: {self.columns}")
        groups: Dict[Tuple[Any, ...], List[int]] = {}
        for i, key in enumerate(zip(*(self._columns[k].values for k in keys))):
            groups.setdefault(key, []).append(i)
        return [(key, self.take(rows)) for key, rows in groups.items()]

    @classmethod
    def from_records(cls, rows: Sequence[Mapping[str, Any]], columns: Optional[Sequence[str]] = None) -> "DataFrame":
        """Build a frame from a list of row dictionaries."""
        return cls(list(rows), columns=columns)
