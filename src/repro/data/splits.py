"""Dataset subsetting helpers."""

from __future__ import annotations

from repro.dataframe import DataFrame

__all__ = ["truncate_by_threshold"]


def truncate_by_threshold(
    frame: DataFrame,
    column: str,
    threshold: float,
    keep: str = "above",
) -> DataFrame:
    """Keep only rows above (or below) a threshold on ``column``.

    This implements the paper's Experiment 3 truncation: the "subset dataset"
    keeps runs with ``size >= 5000``.

    Parameters
    ----------
    keep:
        ``"above"`` keeps rows with ``column >= threshold``;
        ``"below"`` keeps rows with ``column < threshold``.
    """
    if column not in frame:
        raise KeyError(f"no column named {column!r}; available: {frame.columns}")
    if keep not in ("above", "below"):
        raise ValueError(f"keep must be 'above' or 'below', got {keep!r}")
    values = frame[column].to_numpy(float)
    mask = values >= threshold if keep == "above" else values < threshold
    return frame.filter(mask)
