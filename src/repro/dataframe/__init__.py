"""A lightweight columnar data-frame substrate for application run history.

The BanditWare paper ingests application run history "as a Python pandas
dataframe" (Section 3.1).  pandas is not available in this offline
environment, so this package carries that history -- into warm starts,
evaluation frames, the regression baselines and dataset CSVs -- with only
what those callers use:

* :class:`~repro.dataframe.series.Series` -- a named 1-D column backed by a
  NumPy array, with positional indexing and the comparison operators that
  build row masks.
* :class:`~repro.dataframe.frame.DataFrame` -- an ordered mapping of equal
  length columns: construction (also :meth:`~DataFrame.from_records`),
  column access and assignment, ``select``, row access
  (``row``/``iterrows``/``head``/``take``/``filter``/``sample``),
  ``to_numpy`` and ``groupby`` into per-hardware sub-frames (Figure 1).
* :mod:`~repro.dataframe.io` -- CSV reading and writing with type inference.

This is intentionally *not* a pandas re-implementation, and every operation
is eagerly evaluated on NumPy arrays.
"""

from repro.dataframe.series import Series
from repro.dataframe.frame import DataFrame
from repro.dataframe.io import read_csv, write_csv

__all__ = ["Series", "DataFrame", "read_csv", "write_csv"]
