"""Tests for the dataset builders and the Experiment 3 subset."""

import numpy as np
import pytest

from repro.data import (
    BP3D_N_RUNS,
    CYCLES_N_RUNS,
    MATMUL_N_RUNS,
    build_bp3d_dataset,
    build_cycles_dataset,
    build_matmul_dataset,
    truncate_by_threshold,
)


class TestCyclesDataset:
    def test_size_matches_paper(self, cycles_bundle):
        assert cycles_bundle.n_runs == CYCLES_N_RUNS

    def test_grid_balance(self, cycles_bundle):
        counts = cycles_bundle.per_hardware_counts()
        assert len(counts) == 4
        assert len(set(counts.values())) == 1

    def test_two_workflow_sizes(self, cycles_bundle):
        sizes = set(cycles_bundle.frame["num_tasks"].to_numpy(float))
        assert sizes == {100.0, 500.0}

    def test_deterministic(self):
        a = build_cycles_dataset(seed=5).frame["runtime_seconds"].to_list()
        b = build_cycles_dataset(seed=5).frame["runtime_seconds"].to_list()
        assert a == b

    def test_feature_names(self, cycles_bundle):
        assert cycles_bundle.feature_names == ["num_tasks"]


class TestBp3dDataset:
    def test_size_matches_paper(self, bp3d_bundle):
        assert bp3d_bundle.n_runs == BP3D_N_RUNS

    def test_columns_include_table1_features(self, bp3d_bundle):
        assert {"area", "wind_speed", "sim_time", "surface_moisture"} <= set(
            bp3d_bundle.frame.columns
        )

    def test_runs_spread_over_ndp_triple(self, bp3d_bundle):
        counts = bp3d_bundle.per_hardware_counts()
        assert set(counts) == {"H0", "H1", "H2"}
        assert min(counts.values()) > 300

    def test_runtime_scale(self, bp3d_bundle):
        runtimes = bp3d_bundle.frame["runtime_seconds"].to_numpy(float)
        assert runtimes.max() > 3.0e4
        assert runtimes.min() >= 0


class TestMatmulDataset:
    def test_size_matches_paper(self, matmul_bundle):
        assert matmul_bundle.n_runs == MATMUL_N_RUNS

    def test_small_size_majority(self, matmul_bundle):
        sizes = matmul_bundle.frame["size"].to_numpy(float)
        fraction = float((sizes < 5000).mean())
        assert 0.6 < fraction < 0.8

    def test_five_hardware_options(self, matmul_bundle):
        assert len(matmul_bundle.catalog) == 5

    def test_runtime_ranges(self, matmul_bundle):
        frame = matmul_bundle.frame
        sizes = frame["size"].to_numpy(float)
        runtimes = frame["runtime_seconds"].to_numpy(float)
        assert runtimes[sizes < 5000].max() < 150
        assert runtimes[sizes >= 5000].max() > 500


class TestSplits:
    def test_truncate_above(self, matmul_bundle):
        subset = truncate_by_threshold(matmul_bundle.frame, "size", 5000, keep="above")
        assert subset["size"].to_numpy(float).min() >= 5000
        assert len(subset) < len(matmul_bundle.frame)

    def test_truncate_below(self, matmul_bundle):
        subset = truncate_by_threshold(matmul_bundle.frame, "size", 5000, keep="below")
        assert subset["size"].to_numpy(float).max() < 5000

    def test_truncate_partitions_completely(self, matmul_bundle):
        above = truncate_by_threshold(matmul_bundle.frame, "size", 5000, keep="above")
        below = truncate_by_threshold(matmul_bundle.frame, "size", 5000, keep="below")
        assert len(above) + len(below) == len(matmul_bundle.frame)

    def test_truncate_invalid_arguments(self, matmul_bundle):
        with pytest.raises(KeyError):
            truncate_by_threshold(matmul_bundle.frame, "nope", 5000)
        with pytest.raises(ValueError):
            truncate_by_threshold(matmul_bundle.frame, "size", 5000, keep="sideways")
