"""Interference-aware scenario evaluation and the NoInterference parity pin."""

import numpy as np
import pytest

from repro.cluster import LinearSlowdown, NoInterference
from repro.core.rewards import RegretLedger, RoundOutcome
from repro.evaluation import (
    CONTENTION_SCENARIOS,
    build_scenario,
    format_contention_report,
    run_scenario,
)

from conftest import synchronous_run


class TestNoInterferenceExactParity:
    """The progress-based engine must be bit-identical to the pre-refactor
    fixed-finish engine under the null model.  The values below were
    captured from the fixed-finish engine immediately before the refactor;
    any drift in decisions, runtimes or regret is a regression."""

    # Fixed-finish engine, saturated seed=0 (queued path, FIFO).
    _SATURATED_DECISIONS = [
        "H2", "H1", "H0", "H4", "H4", "H3", "H1", "H4", "H2", "H0",
        "H0", "H4", "H2", "H2", "H0", "H3", "H3", "H1", "H1", "H1",
        "H4", "H3", "H2", "H3", "H2", "H1", "H1", "H2", "H1", "H1",
        "H3", "H0", "H1", "H0", "H1", "H1", "H0", "H2", "H3", "H1",
    ]

    def test_saturated_seed0_is_bit_identical_to_fixed_finish_engine(self):
        result = run_scenario(build_scenario("saturated", seed=0))
        outcome = result.tenants["sweep-campaign"]
        assert outcome.decisions == self._SATURATED_DECISIONS
        assert outcome.runtimes[0] == 6.086434041498685
        assert outcome.runtimes[1] == 21.462081448462836
        assert outcome.runtimes[2] == 444.45040960773684
        assert outcome.runtimes[-1] == 142.87389111939873
        summary = result.summary()
        assert summary["cumulative_regret"] == 1332.886106759458
        assert summary["queue_inclusive_regret"] == 47692.3650017132
        assert summary["makespan_seconds"] == 2539.3950077439695

    def test_zero_contention_seed1_is_bit_identical_to_fixed_finish_engine(self):
        result = run_scenario(build_scenario("zero-contention", seed=1))
        outcome = result.tenants["solo"]
        assert outcome.runtimes[0] == 40.57114780721727
        assert outcome.runtimes[-1] == 60.58739989639973
        assert result.summary()["cumulative_regret"] == 364.36796220742525
        assert result.summary()["makespan_seconds"] == 2041.0988437892695

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_explicit_null_model_equals_default(self, seed):
        default = run_scenario(build_scenario("saturated", seed=seed))
        explicit = run_scenario(
            build_scenario("saturated", seed=seed).with_interference(NoInterference())
        )
        assert default.tenants["sweep-campaign"].decisions == (
            explicit.tenants["sweep-campaign"].decisions
        )
        assert default.tenants["sweep-campaign"].runtimes == (
            explicit.tenants["sweep-campaign"].runtimes
        )
        d_regret = default.tenants["sweep-campaign"].ledger.cumulative_runtime_regret()
        e_regret = explicit.tenants["sweep-campaign"].ledger.cumulative_runtime_regret()
        assert np.array_equal(d_regret, e_regret)

    def test_null_model_runs_report_unit_slowdown_everywhere(self):
        result = run_scenario(build_scenario("mixed-tenants", seed=0))
        assert all(row["slowdown"] == 1.0 for row in result.rows)
        assert all(
            row["runtime_seconds"] == row["planned_seconds"] for row in result.rows
        )
        summary = result.summary()
        assert summary["mean_slowdown"] == 1.0
        assert summary["interference_seconds"] == 0.0
        assert summary["interference_inclusive_regret"] == summary["cumulative_regret"]

    def test_queued_still_matches_synchronous_under_explicit_null(self):
        scenario = build_scenario("zero-contention", seed=2).with_interference(
            NoInterference()
        )
        queued = run_scenario(scenario)
        reference = synchronous_run(build_scenario("zero-contention", seed=2))
        assert queued.tenants["solo"].decisions == reference["decisions"]
        assert queued.tenants["solo"].runtimes == reference["runtimes"]


class TestInterferenceScenarios:
    def test_registry_has_interference_suite(self):
        assert {"interference-light", "interference-heavy", "noisy-neighbor"} <= set(
            CONTENTION_SCENARIOS
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heavy_interference_inflates_observed_runtimes(self, seed):
        """The acceptance criterion: interference-heavy measurably inflates
        observed runtimes and the regret accounting reflects it."""
        result = run_scenario(build_scenario("interference-heavy", seed=seed))
        summary = result.summary()
        assert summary["mean_slowdown"] > 1.25
        assert summary["interference_seconds"] > 0.0
        # Every completed run was slowed (the node is permanently shared).
        assert all(row["slowdown"] > 1.0 for row in result.rows)
        assert all(
            row["runtime_seconds"] > row["planned_seconds"] for row in result.rows
        )
        # ... and the regret columns carry the inflation.
        assert summary["interference_inclusive_regret"] > summary["cumulative_regret"]
        for outcome in result.tenants.values():
            assert outcome.ledger.total_interference_seconds() > 0.0
            curve = outcome.ledger.cumulative_interference_inclusive_regret()
            assert curve[-1] > outcome.ledger.cumulative_runtime_regret()[-1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_null_counterfactual_runs_at_full_speed(self, seed):
        scenario = build_scenario("interference-heavy", seed=seed)
        null = run_scenario(scenario.with_interference(None))
        assert null.summary()["mean_slowdown"] == 1.0
        assert null.summary()["interference_seconds"] == 0.0
        # Interference strictly stretches the same schedule.
        contended = run_scenario(scenario)
        assert contended.makespan_seconds > null.makespan_seconds

    def test_bandit_learns_from_inflated_runtimes(self):
        # The observations that reached the recommender are the observed
        # (inflated) runtimes, not the contention-free draws.
        result = run_scenario(build_scenario("interference-heavy", seed=0))
        for outcome in result.tenants.values():
            observed = np.asarray(outcome.runtimes)
            planned = np.asarray(
                [row["planned_seconds"] for row in result.rows if row["tenant"] == outcome.tenant]
            )
            assert np.all(observed > planned)
            total = outcome.ledger.total_observed_runtime()
            assert total == pytest.approx(float(observed.sum()))

    def test_light_interference_is_lighter_than_heavy(self):
        light = run_scenario(build_scenario("interference-light", seed=0)).summary()
        heavy = run_scenario(build_scenario("interference-heavy", seed=0)).summary()
        assert 1.0 < light["mean_slowdown"] < heavy["mean_slowdown"]

    def test_noisy_neighbor_slows_the_victim(self):
        result = run_scenario(build_scenario("noisy-neighbor", seed=0))
        victim_rows = [r for r in result.rows if r["tenant"] == "latency-sensitive"]
        assert any(row["slowdown"] > 1.0 for row in victim_rows)
        assert result.summary()["mean_slowdown"] > 1.0

    def test_report_renders_slowdown_column_and_interference_line(self):
        result = run_scenario(build_scenario("interference-heavy", seed=0))
        text = format_contention_report(result)
        assert "slowdown" in text
        assert "interference: mean slowdown" in text
        assert "over the contention-free plan" in text

    def test_report_omits_interference_line_without_interference(self):
        result = run_scenario(build_scenario("saturated", seed=0))
        text = format_contention_report(result)
        assert "slowdown" in text  # the column is always there
        assert "interference: mean slowdown" not in text


class TestInterferenceRegretAccounting:
    def _outcome(self, observed, planned, i=0):
        return RoundOutcome(
            round_index=i,
            chosen_hardware="H1",
            best_hardware="H0",
            observed_runtime=observed,
            best_expected_runtime=10.0,
            expected_runtime_on_chosen=14.0,
            explored=False,
            planned_runtime=planned,
        )

    def test_interference_seconds_and_slowdown(self):
        outcome = self._outcome(observed=18.0, planned=12.0)
        assert outcome.interference_seconds == 6.0
        assert outcome.slowdown == pytest.approx(1.5)
        assert outcome.interference_inclusive_regret == pytest.approx(4.0 + 6.0)

    def test_defaults_to_no_interference(self):
        outcome = RoundOutcome(0, "H0", "H0", 10.0, 10.0, 10.0, False)
        assert outcome.planned_runtime is None
        assert outcome.interference_seconds == 0.0
        assert outcome.slowdown == 1.0
        assert outcome.interference_inclusive_regret == outcome.runtime_regret

    def test_negative_planned_rejected(self):
        with pytest.raises(ValueError):
            self._outcome(observed=10.0, planned=-1.0)

    def test_ledger_accumulates_interference(self):
        ledger = RegretLedger()
        ledger.record(self._outcome(observed=18.0, planned=12.0, i=0))
        ledger.record(self._outcome(observed=12.0, planned=12.0, i=1))
        assert ledger.total_interference_seconds() == pytest.approx(6.0)
        assert ledger.cumulative_interference_inclusive_regret().tolist() == [10.0, 14.0]
        assert ledger.mean_slowdown() == pytest.approx((1.5 + 1.0) / 2)
        summary = ledger.summary()
        assert summary["interference_inclusive_regret"] == pytest.approx(14.0)
        assert summary["total_interference_seconds"] == pytest.approx(6.0)
        assert summary["mean_slowdown"] == pytest.approx(1.25)

    def test_empty_ledger_has_interference_keys(self):
        summary = RegretLedger().summary()
        assert summary["interference_inclusive_regret"] == 0.0
        assert summary["total_interference_seconds"] == 0.0
        assert summary["mean_slowdown"] == 1.0
