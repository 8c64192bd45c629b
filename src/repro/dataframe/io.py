"""CSV reading and writing with simple type inference.

Dataset builders in :mod:`repro.data` can persist generated traces to CSV so
that examples and benchmarks can be re-run against frozen inputs, mirroring
how the paper's authors work from collected run-history CSVs.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.dataframe.frame import DataFrame

__all__ = ["read_csv", "write_csv"]

_MISSING_TOKENS = {"", "nan", "NaN", "NA", "null", "None"}


def _infer_column(values: List[str]) -> np.ndarray:
    """Infer the best dtype for a column of raw strings.

    Tries int, then float, then falls back to object (string); integers
    beyond the int64 range make the column float.  Missing tokens force a
    float column (so they can be NaN) unless everything is missing, in which
    case the column is float NaN.
    """
    has_missing = any(v in _MISSING_TOKENS for v in values)
    non_missing = [v for v in values if v not in _MISSING_TOKENS]

    if not non_missing:
        return np.full(len(values), np.nan, dtype=float)

    if not has_missing:
        try:
            return np.asarray([int(v) for v in values], dtype=np.int64)
        except (ValueError, OverflowError):  # not ints, or beyond int64
            pass
    try:
        return np.asarray(
            [float(v) if v not in _MISSING_TOKENS else np.nan for v in values], dtype=float
        )
    except ValueError:
        return np.asarray(
            [v if v not in _MISSING_TOKENS else "" for v in values], dtype=object
        )


def read_csv(path_or_buffer: Union[str, os.PathLike, io.TextIOBase], delimiter: str = ",") -> DataFrame:
    """Read a CSV file (or text buffer) into a :class:`DataFrame`.

    The first row is treated as the header.  Column dtypes are inferred as
    int64, float64 or object.
    """
    close = False
    if isinstance(path_or_buffer, (str, os.PathLike)):
        handle = open(path_or_buffer, "r", newline="")
        close = True
    else:
        handle = path_or_buffer
    try:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            return DataFrame({})
        raw: Dict[str, List[str]] = {name: [] for name in header}
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"row has {len(row)} fields but header has {len(header)}: {row!r}"
                )
            for name, value in zip(header, row):
                raw[name].append(value)
    finally:
        if close:
            handle.close()
    return DataFrame({name: _infer_column(values) for name, values in raw.items()})


def _format_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and np.isnan(value):
        return ""
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def write_csv(
    frame: DataFrame,
    path_or_buffer: Union[str, os.PathLike, io.TextIOBase],
    delimiter: str = ",",
    columns: Optional[Sequence[str]] = None,
) -> None:
    """Write ``frame`` to CSV (header + rows)."""
    names = list(columns) if columns is not None else frame.columns
    close = False
    if isinstance(path_or_buffer, (str, os.PathLike)):
        handle = open(path_or_buffer, "w", newline="")
        close = True
    else:
        handle = path_or_buffer
    try:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(names)
        for row in frame.iterrows():
            writer.writerow([_format_value(row[name]) for name in names])
    finally:
        if close:
            handle.close()
