"""Persisting generated datasets to disk and loading them back.

Benchmarks and examples normally regenerate the synthetic datasets on the fly
(they are deterministic), but a downstream user replacing them with *real*
run-history CSVs needs a defined on-disk layout.  A dataset directory contains:

* ``runs.csv`` -- the run-history table (one row per run: feature columns,
  ``hardware``, ``runtime_seconds``, ...);
* ``catalog.json`` -- the hardware catalog (name, cpus, memory_gb, ...);
* ``metadata.json`` -- dataset name, application name and feature order.

:func:`save_dataset` writes that layout from a :class:`~repro.data.datasets.DatasetBundle`
and :func:`load_run_history` reads ``runs.csv``/``catalog.json`` back (the
workload model itself is code, not data, so a loaded directory yields the
frame + catalog + metadata rather than a full bundle).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Union

from repro.data.datasets import DatasetBundle
from repro.dataframe import DataFrame, read_csv, write_csv
from repro.hardware import HardwareCatalog

__all__ = ["LoadedRunHistory", "save_dataset", "load_run_history"]

_RUNS_FILE = "runs.csv"
_CATALOG_FILE = "catalog.json"
_METADATA_FILE = "metadata.json"


@dataclass
class LoadedRunHistory:
    """A dataset directory read back from disk."""

    name: str
    application: str
    feature_names: List[str]
    frame: DataFrame
    catalog: HardwareCatalog


def save_dataset(bundle: DatasetBundle, directory: Union[str, os.PathLike]) -> Path:
    """Write ``bundle`` to ``directory`` (created if needed); returns the path."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    write_csv(bundle.frame, path / _RUNS_FILE)
    with open(path / _CATALOG_FILE, "w") as handle:
        json.dump(bundle.catalog.to_records(), handle, indent=2)
    metadata = {
        "name": bundle.name,
        "application": bundle.workload.name,
        "feature_names": list(bundle.workload.feature_names),
        "n_runs": bundle.n_runs,
    }
    with open(path / _METADATA_FILE, "w") as handle:
        json.dump(metadata, handle, indent=2)
    return path


def load_run_history(directory: Union[str, os.PathLike]) -> LoadedRunHistory:
    """Read a dataset directory previously written by :func:`save_dataset`.

    Raises
    ------
    FileNotFoundError
        If any of the three expected files is missing.
    ValueError
        If the run table lacks the columns named in the metadata, or a
        catalog entry has a fractional CPU or GPU count or a non-finite
        capacity (:class:`~repro.hardware.HardwareConfig` checks each).
    """
    path = Path(directory)
    for filename in (_RUNS_FILE, _CATALOG_FILE, _METADATA_FILE):
        if not (path / filename).exists():
            raise FileNotFoundError(f"dataset directory {path} is missing {filename}")
    frame = read_csv(path / _RUNS_FILE)
    with open(path / _CATALOG_FILE) as handle:
        catalog = HardwareCatalog.from_records(json.load(handle))
    with open(path / _METADATA_FILE) as handle:
        metadata = json.load(handle)
    feature_names = [str(name) for name in metadata.get("feature_names", [])]
    missing = [
        column
        for column in (*feature_names, "hardware", "runtime_seconds")
        if column not in frame
    ]
    if missing:
        raise ValueError(f"runs.csv in {path} is missing columns {missing}")
    return LoadedRunHistory(
        name=str(metadata.get("name", path.name)),
        application=str(metadata.get("application", "unknown")),
        feature_names=feature_names,
        frame=frame,
        catalog=catalog,
    )
