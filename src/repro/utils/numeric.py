"""Float totals whose last bit does not depend on the Python version."""

from __future__ import annotations

from typing import Iterable


def ordered_sum(values: Iterable[float]) -> float:
    """``sum(values)``, added strictly left to right.

    Since CPython 3.12 the builtin ``sum`` compensates float rounding
    (Neumaier), so its last bit can differ from 3.10/3.11's.  Float totals
    that reach pinned outputs go through this instead, so the golden
    fingerprints hold on every supported interpreter.
    """
    total = 0
    for value in values:
        total += value
    return total
