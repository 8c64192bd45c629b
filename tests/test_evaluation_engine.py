"""Tests for the unified experiment engine, its new scenarios and sweeps."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.rewards import RewardConfig
from repro.evaluation import (
    CONTENTION_SCENARIOS,
    ExperimentEngine,
    build_scenario,
    run_scenario,
    run_scenario_sweep,
)
from repro.evaluation import engine
from repro.evaluation.engine import (
    replication_sequences,
    stream_rng,
)
from repro.hardware import occupancy_cost


class TestSeedingDiscipline:
    def test_stream_rng_is_deterministic_per_purpose(self):
        a = stream_rng(3, 1, "features").integers(1 << 30, size=4)
        b = stream_rng(3, 1, "features").integers(1 << 30, size=4)
        c = stream_rng(3, 1, "arrivals").integers(1 << 30, size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_rng_rejects_unknown_purpose(self):
        with pytest.raises(KeyError):
            stream_rng(0, 0, "nope")

    def test_replication_sequences_are_independent_children(self):
        seqs = replication_sequences(7, 3)
        assert len(seqs) == 3
        draws = [np.random.default_rng(s).integers(1 << 30, size=2) for s in seqs]
        assert not np.array_equal(draws[0], draws[1])
        again = replication_sequences(7, 3)
        redraws = [np.random.default_rng(s).integers(1 << 30, size=2) for s in again]
        for first, second in zip(draws, redraws):
            assert np.array_equal(first, second)


class TestEngineFrontendParity:
    """run_scenario is a thin wrapper over the engine."""

    def test_run_scenario_equals_engine_run(self):
        direct = ExperimentEngine(build_scenario("saturated", seed=3)).run()
        wrapped = run_scenario(build_scenario("saturated", seed=3))
        assert direct.summary() == wrapped.summary()
        assert direct.rows == wrapped.rows


class TestScenarioPickling:
    """Scenario sweeps fan out over the PR 1 process pool: every registered
    scenario (and its workloads, schedulers and autoscaler) must pickle."""

    @pytest.mark.parametrize("name", sorted(CONTENTION_SCENARIOS))
    def test_registered_scenario_round_trips(self, name):
        scenario = build_scenario(name, seed=1)
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone.name == scenario.name
        assert [t.name for t in clone.tenants] == [t.name for t in scenario.tenants]

    @pytest.mark.parametrize("name", ["saturated", "priority-tiers", "queue-feedback"])
    def test_pickled_scenario_runs_identically(self, name):
        scenario = build_scenario(name, seed=2)
        clone = pickle.loads(pickle.dumps(scenario))
        assert run_scenario(clone).summary() == run_scenario(scenario).summary()


class TestScenarioSweep:
    def test_serial_sweep_preserves_order(self):
        scenarios = [build_scenario("saturated", seed=s) for s in (0, 1, 2)]
        results = run_scenario_sweep(scenarios, n_workers=1)
        assert [r.scenario_name for r in results] == ["saturated"] * 3
        assert results[0].summary() == run_scenario(scenarios[0]).summary()

    def test_parallel_sweep_matches_serial(self):
        scenarios = [build_scenario("autoscale-burst", seed=s) for s in (0, 1)]
        serial = [r.summary() for r in run_scenario_sweep(scenarios, n_workers=1)]
        parallel = [r.summary() for r in run_scenario_sweep(scenarios, n_workers=2)]
        assert serial == parallel

    def test_thread_fallback_matches_serial(self, monkeypatch):
        import concurrent.futures

        attempts = []

        def unavailable(*args, **kwargs):
            attempts.append(kwargs["max_workers"])
            raise OSError("process pools are unavailable here")

        scenarios = [build_scenario("autoscale-burst", seed=s) for s in (0, 1)]
        serial = [r.summary() for r in run_scenario_sweep(scenarios, n_workers=1)]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
        fallback = [r.summary() for r in run_scenario_sweep(scenarios, n_workers=2)]
        assert attempts == [2]
        assert serial == fallback

    @pytest.mark.parametrize("n_workers", [0, 1.5, True])
    def test_rejects_bad_worker_count(self, n_workers):
        with pytest.raises(ValueError):
            run_scenario_sweep([], n_workers=n_workers)


class TestLazyPoolImport:
    """Only a run with more than one worker loads the process-pool machinery."""

    def test_importing_evaluation_leaves_multiprocessing_unloaded(self):
        src = Path(engine.__file__).resolve().parents[2]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        script = (
            "import json, sys\n"
            "import repro.evaluation\n"
            "names = ('multiprocessing', 'concurrent.futures.process')\n"
            "print(json.dumps([name for name in names if name in sys.modules]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=False, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []


class TestPriorityTiersScenario:
    def test_high_tier_queues_less_than_low_tier(self):
        result = run_scenario(build_scenario("priority-tiers", seed=0))
        by_tenant = {}
        for row in result.rows:
            by_tenant.setdefault(row["tenant"], []).append(float(row["queue_seconds"]))
        high = np.mean(by_tenant["interactive-tier"])
        low = np.mean(by_tenant["batch-tier"])
        assert high < low

    def test_preemptions_waste_accounted_resource_seconds(self):
        result = run_scenario(build_scenario("priority-tiers", seed=0))
        summary = result.summary()
        assert summary["preemptions"] > 0
        assert summary["wasted_occupancy_cost"] > 0
        # Row-level wasted occupancy sums to the scenario total, and each
        # row's useful+wasted cost equals the footprint of its total
        # occupied time -- the conservation the preemption accounting pins.
        catalog = build_scenario("priority-tiers", seed=0).union_catalog()
        total_wasted = 0.0
        for row in result.rows:
            config = catalog[str(row["hardware"])]
            wasted = float(row["wasted_occupancy_cost"])
            total_wasted += wasted
            occupied = float(row["runtime_seconds"]) + float(row["wasted_seconds"])
            assert float(row["occupancy_cost"]) + wasted == pytest.approx(
                occupancy_cost(config, occupied)
            )
        assert total_wasted == pytest.approx(summary["wasted_occupancy_cost"])

    def test_only_low_priority_rows_are_preempted(self):
        result = run_scenario(build_scenario("priority-tiers", seed=0))
        for row in result.rows:
            if int(row["preemptions"]) > 0:
                assert int(row["priority"]) == 0


class TestAutoscaleBurstScenario:
    def test_pool_provisions_and_is_charged(self):
        result = run_scenario(build_scenario("autoscale-burst", seed=0))
        summary = result.summary()
        assert summary["node_pool_cost"] > 0
        kinds = {e.kind for e in result.scale_events}
        assert {"scale_up_requested", "node_provisioned"} <= kinds

    def test_bursts_still_queue_behind_provisioning_delay(self):
        result = run_scenario(build_scenario("autoscale-burst", seed=0))
        assert result.summary()["mean_queue_seconds"] > 0


class TestQueueAwareFeedback:
    """The acceptance criterion: queue-aware rewards lower the
    queue-inclusive regret of the autoscale-burst campaign."""

    def test_queue_feedback_lowers_queue_inclusive_regret_seed0(self):
        blind = run_scenario(build_scenario("autoscale-burst", seed=0)).summary()
        aware = run_scenario(build_scenario("queue-feedback", seed=0)).summary()
        assert aware["queue_inclusive_regret"] < blind["queue_inclusive_regret"]
        assert aware["total_queue_seconds"] < blind["total_queue_seconds"]

    def test_queue_feedback_lowers_regret_across_seeds(self):
        blind, aware = [], []
        for seed in (1, 2, 3):
            blind.append(
                run_scenario(build_scenario("autoscale-burst", seed=seed)).summary()[
                    "queue_inclusive_regret"
                ]
            )
            aware.append(
                run_scenario(build_scenario("queue-feedback", seed=seed)).summary()[
                    "queue_inclusive_regret"
                ]
            )
        assert np.mean(aware) < np.mean(blind)

    def test_queue_feedback_prefers_lean_allocations(self):
        # The whole point: with queue-aware rewards the bandit shifts from
        # the node-hogging solo-fastest arm to the packable one.
        blind = run_scenario(build_scenario("autoscale-burst", seed=0))
        aware = run_scenario(build_scenario("queue-feedback", seed=0))
        blind_lean = sum(d == "lean" for d in blind.tenants["burst-campaign"].decisions)
        aware_lean = sum(d == "lean" for d in aware.tenants["burst-campaign"].decisions)
        assert aware_lean > blind_lean

    def test_with_queue_feedback_copies_every_tenant(self):
        scenario = build_scenario("saturated", seed=0).with_queue_feedback(0.5)
        assert all(
            t.reward is not None and t.reward.queue_aware and t.reward.queue_weight == 0.5
            for t in scenario.tenants
        )
        # Queue-blind parity knobs untouched.
        base = build_scenario("saturated", seed=0)
        assert [t.n_workflows for t in scenario.tenants] == [
            t.n_workflows for t in base.tenants
        ]


class TestRewardConfig:
    def test_runtime_mode_is_identity(self):
        config = RewardConfig()
        assert config.effective_runtime(12.5, 1000.0) == 12.5
        assert not config.queue_aware

    def test_queue_inclusive_adds_weighted_delay(self):
        config = RewardConfig(mode="queue_inclusive", queue_weight=0.5)
        assert config.effective_runtime(10.0, 8.0) == pytest.approx(14.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(mode="nope")
        with pytest.raises(ValueError):
            RewardConfig(queue_weight=-1.0)
        with pytest.raises(ValueError):
            RewardConfig(mode="queue_inclusive").effective_runtime(1.0, -2.0)

    def test_invalid_queue_rejected_in_runtime_mode_too(self):
        # Regression: validation must not depend on the reward mode.
        config = RewardConfig()
        with pytest.raises(ValueError):
            config.effective_runtime(1.0, -2.0)
        with pytest.raises(ValueError):
            config.effective_runtime(1.0, float("nan"))

    def test_zero_contention_results_unchanged_by_queue_mode(self):
        # With no queueing the queue-aware mode cannot change anything.
        blind = run_scenario(build_scenario("zero-contention", seed=0))
        aware = run_scenario(
            build_scenario("zero-contention", seed=0).with_queue_feedback(1.0)
        )
        assert blind.tenants["solo"].decisions == aware.tenants["solo"].decisions
        assert blind.tenants["solo"].rows == aware.tenants["solo"].rows


class TestScenarioReplications:
    """Engine-level replication of whole scenarios with confidence bands."""

    def _summary(self, n=3, name="saturated", n_workers=1):
        from repro.evaluation import run_scenario_replications

        return run_scenario_replications(build_scenario(name, seed=0), n, n_workers=n_workers)

    def test_curves_are_rectangular_and_seeded_consecutively(self):
        summary = self._summary(3)
        assert summary.n_replications == 3
        assert summary.seeds == [0, 1, 2]
        n_rounds = len(summary.results[0].rows)
        assert summary.n_rounds == n_rounds
        for matrix in (
            summary.regret_curves,
            summary.queue_regret_curves,
            summary.interference_regret_curves,
            summary.slowdown_curves,
        ):
            assert matrix.shape == (3, n_rounds)

    def test_each_replication_matches_a_direct_run(self):
        summary = self._summary(2)
        for seed, result in zip(summary.seeds, summary.results):
            direct = run_scenario(build_scenario("saturated", seed=seed))
            assert result.summary() == direct.summary()

    def test_band_mean_and_ci_are_consistent(self):
        summary = self._summary(3)
        band = summary.band("queue_regret")
        manual = summary.queue_regret_curves.mean(axis=0)
        assert np.allclose(band["mean"], manual)
        assert np.all(band["lo"] <= band["mean"] + 1e-12)
        assert np.all(band["hi"] >= band["mean"] - 1e-12)
        # Final point of the mean curve equals the mean of the final
        # queue-inclusive regrets.
        finals = [r.summary()["queue_inclusive_regret"] for r in summary.results]
        assert band["mean"][-1] == pytest.approx(float(np.mean(finals)))
        with pytest.raises(KeyError):
            summary.band("nonexistent")

    def test_scalar_summary_reports_mean_and_std(self):
        summary = self._summary(3)
        scalars = summary.summary()
        regrets = [r.summary()["cumulative_regret"] for r in summary.results]
        mean, std = scalars["cumulative_regret"]
        assert mean == pytest.approx(float(np.mean(regrets)))
        assert std == pytest.approx(float(np.std(regrets, ddof=1)))

    def test_parallel_replications_match_serial(self):
        serial = self._summary(2)
        parallel = self._summary(2, n_workers=2)
        assert np.array_equal(serial.queue_regret_curves, parallel.queue_regret_curves)
        assert np.array_equal(serial.slowdown_curves, parallel.slowdown_curves)

    def test_report_surfaces_confidence_bands(self):
        from repro.evaluation import format_contention_report

        summary = self._summary(2)
        text = format_contention_report(summary.results[0], replications=summary)
        assert "replications: 2 seeds (0..1)" in text
        assert "95% CI" in text
        assert "q_regret_mean" in text
        assert "±" in text

    @pytest.mark.parametrize("n_replications", [0, True, 2.5])
    def test_rejects_bad_replication_count(self, n_replications):
        from repro.evaluation import run_scenario_replications

        with pytest.raises(ValueError, match="n_replications"):
            run_scenario_replications(build_scenario("saturated", seed=0), n_replications)
