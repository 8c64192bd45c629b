"""Deterministic builders for the paper's three datasets and their subsets.

The original run-history CSVs (80 Cycles runs, 1316 BP3D runs, 2520 matrix
multiplication runs) are not public; these builders generate synthetic
equivalents of the same size and composition from the workload models, with
fixed seeds so every test, example and benchmark sees identical data.
"""

from repro.data.datasets import (
    DatasetBundle,
    build_cycles_dataset,
    build_bp3d_dataset,
    build_matmul_dataset,
    CYCLES_N_RUNS,
    BP3D_N_RUNS,
    MATMUL_N_RUNS,
)
from repro.data.splits import truncate_by_threshold
from repro.data.io import LoadedRunHistory, load_run_history, save_dataset

__all__ = [
    "LoadedRunHistory",
    "save_dataset",
    "load_run_history",
    "DatasetBundle",
    "build_cycles_dataset",
    "build_bp3d_dataset",
    "build_matmul_dataset",
    "CYCLES_N_RUNS",
    "BP3D_N_RUNS",
    "MATMUL_N_RUNS",
    "truncate_by_threshold",
]
