"""Tests for the replicated online simulation and the experiment registry."""

import numpy as np
import pytest

from conftest import EXPERIMENT_INPUT_DIGESTS, experiment_input_digest
from repro.data import build_cycles_dataset
from repro.evaluation import (
    EXPERIMENT_NAMES,
    OnlineSimulation,
    SimulationConfig,
    SimulationResult,
    build_experiment,
    format_series,
    run_experiment,
)
from repro.core.selection import ToleranceConfig, TolerantSelector
from repro.evaluation.experiment import ExperimentDefinition
from repro.hardware import HardwareCatalog, HardwareConfig, ndp_catalog
from repro.workloads import LinearRuntimeWorkload, TraceGenerator


@pytest.fixture
def linear_setup(ndp):
    workload = LinearRuntimeWorkload(
        feature_ranges={"x": (1.0, 10.0)},
        coefficients={
            "H0": ({"x": 20.0}, 10.0),
            "H1": ({"x": 4.0}, 10.0),
            "H2": ({"x": 10.0}, 10.0),
        },
        noise_sigma=1.0,
    )
    frame = TraceGenerator(workload, ndp, seed=21).generate_frame(40, grid=True)
    return workload, frame


class TestSimulationConfig:
    def test_defaults_match_paper(self):
        cfg = SimulationConfig()
        assert cfg.epsilon0 == 1.0
        assert cfg.decay == 0.99
        assert cfg.policy == "epsilon_greedy"
        assert cfg.arm_model == "ols"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_rounds=0)
        with pytest.raises(ValueError):
            SimulationConfig(n_simulations=0)
        with pytest.raises(ValueError):
            SimulationConfig(policy="bogus")
        with pytest.raises(ValueError):
            SimulationConfig(arm_model="bogus")
        with pytest.raises(ValueError):
            SimulationConfig(evaluation_subsample=0)
        with pytest.raises(ValueError, match="epsilon0"):
            SimulationConfig(epsilon0=1.5)
        with pytest.raises(ValueError, match="decay"):
            SimulationConfig(decay=1.2)
        with pytest.raises(ValueError, match="decay"):
            SimulationConfig(decay=-0.1)
        with pytest.raises(ValueError, match="tolerance_ratio"):
            SimulationConfig(tolerance_ratio=-0.05)
        with pytest.raises(ValueError, match="tolerance_seconds"):
            SimulationConfig(tolerance_seconds=-1.0)

    def test_policy_factory(self):
        for name in ("epsilon_greedy", "greedy", "random", "linucb", "thompson"):
            arm_model = "rls" if name in ("linucb", "thompson") else "ols"
            policy = SimulationConfig(policy=name, arm_model=arm_model).make_policy()
            assert policy is not None

    @pytest.mark.parametrize("policy", ["linucb", "thompson"])
    @pytest.mark.parametrize("arm_model", ["ols", "ridge"])
    def test_posterior_policies_need_rls_arms(self, policy, arm_model):
        with pytest.raises(ValueError, match="arm_model='rls'"):
            SimulationConfig(policy=policy, arm_model=arm_model)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_rounds", True),
            ("n_rounds", 2.5),
            ("n_simulations", True),
            ("n_simulations", 2.5),
            ("n_workers", 1.5),
            ("n_workers", True),
            ("n_workers", 0),
            ("evaluation_subsample", 2.5),
            ("evaluation_subsample", True),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimulationConfig(**{field: value})

    def test_tolerance_property(self):
        cfg = SimulationConfig(tolerance_ratio=0.05, tolerance_seconds=20.0)
        assert cfg.tolerance.ratio == 0.05
        assert cfg.tolerance.seconds == 20.0


class TestOnlineSimulation:
    def _run(self, workload, frame, ndp, **overrides):
        defaults = dict(n_rounds=30, n_simulations=4, seed=0)
        defaults.update(overrides)
        config = SimulationConfig(**defaults)
        return OnlineSimulation(workload, ndp, frame, config=config).run()

    def test_result_shapes(self, linear_setup, ndp):
        workload, frame = linear_setup
        result = self._run(workload, frame, ndp)
        assert result.rmse.shape == (4, 30)
        assert result.accuracy.shape == (4, 30)
        assert result.rounds[0] == 1 and result.rounds[-1] == 30

    def test_rmse_decreases_toward_reference(self, linear_setup, ndp):
        workload, frame = linear_setup
        result = self._run(workload, frame, ndp)
        early = result.mean_rmse()[:5].mean()
        late = result.mean_rmse()[-5:].mean()
        assert late < early
        assert late < 3.0 * result.reference_rmse

    def test_accuracy_beats_random_on_separable_workload(self, linear_setup, ndp):
        workload, frame = linear_setup
        result = self._run(workload, frame, ndp)
        assert result.accuracy_at(30)[0] > result.random_accuracy

    def test_reproducible_with_same_seed(self, linear_setup, ndp):
        workload, frame = linear_setup
        a = self._run(workload, frame, ndp, seed=7)
        b = self._run(workload, frame, ndp, seed=7)
        assert np.allclose(a.rmse, b.rmse)
        assert np.allclose(a.accuracy, b.accuracy)

    def test_different_seeds_differ(self, linear_setup, ndp):
        workload, frame = linear_setup
        a = self._run(workload, frame, ndp, seed=1)
        b = self._run(workload, frame, ndp, seed=2)
        assert not np.allclose(a.rmse, b.rmse)

    def test_random_policy_has_lower_accuracy(self, linear_setup, ndp):
        workload, frame = linear_setup
        bandit = self._run(workload, frame, ndp, n_rounds=40)
        random = self._run(workload, frame, ndp, n_rounds=40, policy="random")
        # Recommendation quality is scored with the greedy head, so what
        # differs is how informative the collected data is; the random policy
        # should not be better than the bandit.
        assert bandit.accuracy_at(40)[0] >= random.accuracy_at(40)[0] - 0.1

    def test_alternative_arm_models_run(self, linear_setup, ndp):
        workload, frame = linear_setup
        for arm_model in ("ridge", "rls"):
            result = self._run(workload, frame, ndp, arm_model=arm_model, n_rounds=15, n_simulations=2)
            assert np.all(np.isfinite(result.rmse))

    def test_alternative_policies_run(self, linear_setup, ndp):
        workload, frame = linear_setup
        for policy in ("greedy", "linucb", "thompson"):
            result = self._run(
                workload, frame, ndp, policy=policy, arm_model="rls", n_rounds=15, n_simulations=2
            )
            assert np.all(np.isfinite(result.accuracy))

    def test_evaluation_subsample(self, linear_setup, ndp):
        workload, frame = linear_setup
        result = self._run(workload, frame, ndp, evaluation_subsample=10, n_rounds=10, n_simulations=2)
        assert result.rmse.shape == (2, 10)

    def test_tolerance_changes_accuracy_semantics(self, ndp):
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (1.0, 10.0)},
            coefficients={
                "H0": ({"x": 5.2}, 10.0),   # slightly slower but most efficient
                "H1": ({"x": 5.0}, 10.0),
                "H2": ({"x": 4.9}, 10.0),   # fastest
            },
            noise_sigma=0.5,
        )
        frame = TraceGenerator(workload, ndp, seed=5).generate_frame(40, grid=True)
        strict = OnlineSimulation(
            workload, ndp, frame, config=SimulationConfig(n_rounds=30, n_simulations=3, seed=0)
        ).run()
        tolerant = OnlineSimulation(
            workload,
            ndp,
            frame,
            config=SimulationConfig(n_rounds=30, n_simulations=3, seed=0, tolerance_seconds=20.0),
        ).run()
        assert tolerant.accuracy_at(30)[0] >= strict.accuracy_at(30)[0]

    def test_missing_columns_rejected(self, linear_setup, ndp):
        workload, frame = linear_setup
        bad = frame.select([c for c in frame.columns if c != "runtime_seconds"])
        with pytest.raises(KeyError):
            OnlineSimulation(workload, ndp, bad)


def _assert_accuracy_matches_row_by_row(bundle, config):
    """Score ``bundle`` under ``config`` and re-score every history by hand.

    Each coefficient history the run hands to ``_score_series`` (the
    full-data reference plus one per replication) is re-scored through
    :meth:`TolerantSelector.select_index`, one evaluation row at a time.
    """
    sim = OnlineSimulation(
        bundle.workload,
        bundle.catalog,
        bundle.frame,
        config=config,
        feature_names=bundle.feature_names,
    )
    scored = []
    score_series = sim._score_series

    def recording(W_hist, b_hist):
        rmse, accuracy = score_series(W_hist, b_hist)
        scored.append((W_hist.copy(), b_hist.copy(), accuracy))
        return rmse, accuracy

    sim._score_series = recording
    sim.run()
    assert len(scored) == 1 + config.n_simulations

    selector = TolerantSelector(config.tolerance)
    acceptable = sim._acceptable
    n_eval = len(sim._y_eval)
    for W_hist, b_hist, accuracy in scored:
        expected = []
        for W, b in zip(W_hist, b_hist):
            preds = sim._X_eval @ W.T + b
            correct = sum(
                bool(acceptable[row, selector.select_index(sim.catalog, preds[row])[0]])
                for row in range(n_eval)
            )
            expected.append(correct / n_eval)
        assert accuracy.tolist() == expected


class TestSeriesScoringMatchesSelection:
    """Per-round accuracy equals tolerant selection applied row by row.

    ``_score_series`` resolves strict three-arm configs (the paper's NDP
    triple) with two pairwise comparisons and every other config with the
    general limit planes; a tolerant config scored as strict, or a wrong
    shortcut, shows up as a different accuracy.
    """

    @pytest.mark.parametrize(
        "tolerance",
        [
            {},
            {"tolerance_seconds": 50.0},
            {"tolerance_ratio": 0.01},
            {"tolerance_ratio": 0.01, "tolerance_seconds": 50.0},
        ],
        ids=["strict", "seconds-50", "ratio-0.01", "ratio-and-seconds"],
    )
    def test_bp3d_three_arms(self, bp3d_bundle, tolerance):
        assert len(bp3d_bundle.catalog) == 3
        config = SimulationConfig(n_rounds=20, n_simulations=2, seed=0, **tolerance)
        _assert_accuracy_matches_row_by_row(bp3d_bundle, config)

    def test_footprint_ties_break_like_the_selector(self):
        # A and B have equal footprints (6 CPU-equivalents each), listed out
        # of the selector's (cpus, memory_gb, name) tie-break order.
        catalog = HardwareCatalog(
            [
                HardwareConfig("A", cpus=4, memory_gb=16),
                HardwareConfig("B", cpus=3, memory_gb=24),
                HardwareConfig("C", cpus=8, memory_gb=64),
            ]
        )
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (1.0, 2.0)},
            coefficients={
                "A": ({"x": 2.0}, 10.0),
                "B": ({"x": 1.0}, 10.0),
                "C": ({"x": 1.0}, 50.0),
            },
            noise_sigma=0.0,
        )
        frame = TraceGenerator(workload, catalog, seed=0).generate_frame(5, grid=True)
        sim = OnlineSimulation(
            workload, catalog, frame, SimulationConfig(n_rounds=1, n_simulations=1)
        )
        # A and B predicted equal: selection takes B, the only acceptable arm.
        W, b = np.ones((3, 1)), np.array([10.0, 10.0, 50.0])
        selector = TolerantSelector(ToleranceConfig())
        picks = {selector.select_index(catalog, row)[0] for row in sim._X_eval @ W.T + b}
        assert picks == {1}
        assert sim._score_models(W, b)[1] == 1.0

    def test_matmul_five_arms_strict(self, matmul_bundle):
        assert len(matmul_bundle.catalog) == 5
        config = SimulationConfig(
            n_rounds=15, n_simulations=1, seed=0, evaluation_subsample=500
        )
        _assert_accuracy_matches_row_by_row(matmul_bundle, config)


class TestSimulationResult:
    def _result(self, linear_setup, ndp):
        workload, frame = linear_setup
        config = SimulationConfig(n_rounds=20, n_simulations=3, seed=0)
        return OnlineSimulation(workload, ndp, frame, config=config).run()

    def test_round_indexing_is_one_based(self, linear_setup, ndp):
        result = self._result(linear_setup, ndp)
        with pytest.raises(ValueError):
            result.rmse_at(0)
        with pytest.raises(ValueError):
            result.accuracy_at(21)
        mean, std = result.rmse_at(20)
        assert mean > 0 and std >= 0

    def test_gap_to_reference(self, linear_setup, ndp):
        result = self._result(linear_setup, ndp)
        gap = result.rmse_gap_to_reference(20)
        assert gap == pytest.approx(
            (result.mean_rmse()[-1] - result.reference_rmse) / result.reference_rmse
        )

    def test_summary_keys(self, linear_setup, ndp):
        summary = self._result(linear_setup, ndp).summary()
        assert {"final_rmse_mean", "reference_rmse", "random_accuracy"} <= set(summary)

    def test_format_series_renders(self, linear_setup, ndp):
        text = format_series(self._result(linear_setup, ndp), every=5, title="demo")
        assert "demo" in text
        assert "reference" in text


class TestExperimentRegistry:
    def test_all_names_buildable(self):
        for name in EXPERIMENT_NAMES:
            definition = build_experiment(name, n_simulations=1, n_rounds=2, evaluation_subsample=30)
            assert isinstance(definition, ExperimentDefinition)
            assert definition.paper_reference

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_experiment("not-an-experiment")

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    @pytest.mark.parametrize("field", ["n_rounds", "n_simulations"])
    def test_zero_budget_is_rejected_not_defaulted(self, name, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            build_experiment(name, **{field: 0})

    def test_cycles_experiment_uses_tolerance_20s(self):
        definition = build_experiment("cycles_synthetic", n_simulations=1, n_rounds=2)
        assert definition.config.tolerance_seconds == 20.0

    def test_matmul_subset_filters_small_sizes(self):
        definition = build_experiment(
            "matmul_subset_no_tolerance", n_simulations=1, n_rounds=2
        )
        sizes = definition.evaluation_frame["size"].to_numpy(float)
        assert sizes.min() >= 5000

    def test_bp3d_area_only_has_single_feature(self):
        definition = build_experiment("bp3d_area_only", n_simulations=1, n_rounds=2)
        assert definition.feature_names == ["area"]

    def test_run_experiment_small(self):
        definition = build_experiment(
            "cycles_synthetic", n_simulations=2, n_rounds=10
        )
        outcome = run_experiment(definition)
        summary = outcome.summary()
        assert summary["final_accuracy_mean"] >= 0
        assert "rmse_gap_round_25" in summary


class TestEvaluationInputs:
    """Every experiment's evaluation inputs are pinned, not only compared within one run."""

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_matches_the_pinned_digest(self, name):
        assert experiment_input_digest(name) == EXPERIMENT_INPUT_DIGESTS[name]
