"""Tests for the command-line interface."""

import io
import re

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_experiment_validates_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-experiment", "not-a-real-experiment"])


class TestListExperiments:
    def test_lists_all_registered_experiments(self):
        code, output = run_cli("list-experiments")
        assert code == 0
        assert "bp3d_all_features" in output
        assert "matmul_subset_tolerance_5pct" in output
        assert "Figures 7a, 7b" in output


class TestShowCatalog:
    def test_ndp_catalog(self):
        code, output = run_cli("show-catalog", "ndp")
        assert code == 0
        assert "H0" in output and "H2" in output

    def test_gpu_catalog_shows_gpus(self):
        code, output = run_cli("show-catalog", "gpu")
        assert code == 0
        assert "G4" in output


class TestRunExperiment:
    def test_small_run_prints_series_and_summary(self):
        code, output = run_cli(
            "run-experiment",
            "cycles_synthetic",
            "--rounds", "10",
            "--simulations", "2",
            "--every", "5",
            "--seed", "1",
        )
        assert code == 0
        assert "rmse_mean" in output
        assert "summary" in output
        assert "final_accuracy_mean" in output

    def test_workers_flag_matches_serial_output(self):
        args = (
            "run-experiment", "cycles_synthetic",
            "--rounds", "8", "--simulations", "2",
            "--subsample", "40", "--every", "4", "--seed", "1",
        )
        code_serial, output_serial = run_cli(*args, "--workers", "1")
        code_parallel, output_parallel = run_cli(*args, "--workers", "2")
        assert code_serial == code_parallel == 0
        assert output_serial == output_parallel

    @pytest.mark.parametrize("flag", ["--rounds", "--simulations"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_rejects_a_budget_below_one(self, flag, value):
        with pytest.raises(SystemExit, match=f"{flag} must be positive"):
            run_cli("run-experiment", "cycles_synthetic", flag, value)


class TestRunContention:
    def test_light_scenario_reports_queue_accounting(self):
        code, output = run_cli("run-contention", "--scenario", "light", "--seed", "1")
        assert code == 0
        assert "scenario summary" in output
        assert "queue_inclusive_regret" in output
        assert "occupancy_cost" in output
        assert "mean_queue_seconds" in output

    def test_saturated_scenario_completes_end_to_end(self):
        code, output = run_cli("run-contention", "--scenario", "saturated", "--rows", "3")
        assert code == 0
        assert "sweep-campaign" in output
        assert "first 3 completions" in output

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-contention", "--scenario", "imaginary"])

    @pytest.mark.parametrize("multi", [["--replications", "2"], ["--sweep-seeds", "2"]])
    @pytest.mark.parametrize("single", [["--profile"], ["--rows", "3"]])
    def test_rejects_single_run_flags_on_multi_seed_runs(self, multi, single):
        with pytest.raises(SystemExit, match="single runs only"):
            run_cli("run-contention", "--scenario", "priority-tiers", *multi, *single)


class TestRunContentionProfile:
    def test_profile_block_follows_an_unchanged_report(self):
        argv = ("run-contention", "--scenario", "interference-heavy")
        plain_code, plain = run_cli(*argv)
        code, profiled = run_cli(*argv, "--profile")
        assert plain_code == code == 0
        report, marker, block = profiled.partition("\nkernel profile (")
        assert marker, "no kernel profile block"
        assert report == plain  # profiling leaves the report byte-identical
        reschedules = int(re.search(r"over (\d+) reschedules", block).group(1))
        assert reschedules > 0
        pushed, handled, superseded = map(
            int, re.search(r"(\d+) pushed / (\d+) handled / (\d+) superseded", block).groups()
        )
        assert pushed == handled + superseded


class TestListScenarios:
    def test_lists_the_whole_registry_with_descriptions(self):
        from repro.evaluation import CONTENTION_SCENARIOS

        code, output = run_cli("list-scenarios")
        assert code == 0
        for name in CONTENTION_SCENARIOS:
            assert name in output
        assert "spread-vs-pack" in output
        assert "LinearSlowdown" in output  # the interference column
        assert "single closed-loop tenant" in output  # a description line


class TestRunContentionPlacement:
    def test_placement_flag_changes_the_outcome(self):
        packed_code, packed = run_cli(
            "run-contention", "--scenario", "interference-heavy", "--placement", "pack"
        )
        aware_code, aware = run_cli(
            "run-contention", "--scenario", "interference-heavy",
            "--placement", "least-slowdown",
        )
        assert packed_code == aware_code == 0
        assert "placement=pack" in packed
        assert "placement=least-slowdown" in aware
        assert "placement: pack" in packed
        assert "placement: least-slowdown" in aware

        def mean_slowdown(text):
            for line in text.splitlines():
                if line.startswith("mean_slowdown"):
                    return float(line.split(":")[1])
            raise AssertionError("no mean_slowdown line")

        assert mean_slowdown(aware) < mean_slowdown(packed)

    def test_invalid_placement_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run-contention", "--scenario", "light", "--placement", "random"]
            )

    def test_replications_append_confidence_bands(self):
        code, output = run_cli(
            "run-contention", "--scenario", "saturated", "--replications", "2"
        )
        assert code == 0
        assert "replications: 2 seeds (0..1)" in output
        assert "95% CI" in output

    def test_replications_exclusive_with_sweep(self):
        with pytest.raises(SystemExit):
            run_cli(
                "run-contention", "--scenario", "saturated",
                "--replications", "2", "--sweep-seeds", "2",
            )


class TestGenerateAndRecommend:
    def test_generate_dataset_writes_files(self, tmp_path):
        target = tmp_path / "cycles"
        code, output = run_cli(
            "generate-dataset", "cycles", "--output", str(target), "--runs", "40"
        )
        assert code == 0
        assert (target / "runs.csv").exists()
        assert "40" in output

    def test_recommend_from_saved_dataset(self, tmp_path):
        target = tmp_path / "cycles"
        run_cli("generate-dataset", "cycles", "--output", str(target), "--runs", "60")
        code, output = run_cli(
            "recommend",
            "--dataset", str(target),
            "--features", "num_tasks=500",
            "--tolerance-seconds", "20",
        )
        assert code == 0
        assert "recommended" in output
        assert "warm-started from 60" in output

    def test_recommend_missing_feature(self, tmp_path):
        target = tmp_path / "cycles"
        run_cli("generate-dataset", "cycles", "--output", str(target), "--runs", "20")
        with pytest.raises(SystemExit):
            run_cli("recommend", "--dataset", str(target), "--features", "wrong=1")

    def test_recommend_bad_feature_syntax(self, tmp_path):
        target = tmp_path / "cycles"
        run_cli("generate-dataset", "cycles", "--output", str(target), "--runs", "20")
        with pytest.raises(SystemExit):
            run_cli("recommend", "--dataset", str(target), "--features", "num_tasks")
