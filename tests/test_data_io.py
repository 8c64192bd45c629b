"""Tests for dataset persistence (save_dataset / load_run_history)."""

import json

import numpy as np
import pytest

from repro.data import build_cycles_dataset, load_run_history, save_dataset
from repro.core import BanditWare


class TestSaveLoadRoundtrip:
    def test_directory_layout(self, tmp_path, cycles_bundle):
        path = save_dataset(cycles_bundle, tmp_path / "cycles")
        assert (path / "runs.csv").exists()
        assert (path / "catalog.json").exists()
        assert (path / "metadata.json").exists()

    def test_roundtrip_preserves_rows_and_catalog(self, tmp_path, cycles_bundle):
        path = save_dataset(cycles_bundle, tmp_path / "cycles")
        loaded = load_run_history(path)
        assert len(loaded.frame) == cycles_bundle.n_runs
        assert loaded.catalog == cycles_bundle.catalog
        assert loaded.feature_names == cycles_bundle.feature_names
        assert loaded.application == cycles_bundle.workload.name
        original = cycles_bundle.frame["runtime_seconds"].to_numpy(float)
        back = loaded.frame["runtime_seconds"].to_numpy(float)
        assert np.allclose(np.sort(original), np.sort(back))

    def test_loaded_history_can_warm_start_a_recommender(self, tmp_path, cycles_bundle):
        path = save_dataset(cycles_bundle, tmp_path / "cycles")
        loaded = load_run_history(path)
        bandit = BanditWare(catalog=loaded.catalog, feature_names=loaded.feature_names, seed=0)
        assert bandit.warm_start(loaded.frame) == len(loaded.frame)

    def test_missing_file_raises(self, tmp_path, cycles_bundle):
        path = save_dataset(cycles_bundle, tmp_path / "cycles")
        (path / "catalog.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_run_history(path)

    @pytest.mark.parametrize(
        "field, value",
        [("cpus", 2.5), ("gpus", 0.5), ("memory_gb", float("nan")), ("memory_gb", float("inf"))],
    )
    def test_hand_edited_catalog_is_refused(self, tmp_path, cycles_bundle, field, value):
        path = save_dataset(cycles_bundle, tmp_path / "cycles")
        records = json.loads((path / "catalog.json").read_text())
        records[1][field] = value
        (path / "catalog.json").write_text(json.dumps(records))
        with pytest.raises(ValueError, match=field):
            load_run_history(path)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_history(tmp_path / "nope")

    def test_metadata_column_mismatch_raises(self, tmp_path, cycles_bundle):
        path = save_dataset(cycles_bundle, tmp_path / "cycles")
        metadata = json.loads((path / "metadata.json").read_text())
        metadata["feature_names"] = ["not_a_column"]
        (path / "metadata.json").write_text(json.dumps(metadata))
        with pytest.raises(ValueError, match="missing columns"):
            load_run_history(path)

    def test_save_is_idempotent(self, tmp_path, cycles_bundle):
        target = tmp_path / "cycles"
        save_dataset(cycles_bundle, target)
        save_dataset(cycles_bundle, target)  # overwrite in place
        assert len(load_run_history(target).frame) == cycles_bundle.n_runs
