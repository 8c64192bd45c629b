"""Tests for the contention-aware, cluster-in-the-loop evaluation."""

import numpy as np
import pytest

from repro.cluster import Node
from repro.core import BanditWare
from repro.core.rewards import RegretLedger, RoundOutcome
from repro.evaluation import (
    CONTENTION_SCENARIOS,
    ContentionScenario,
    TenantSpec,
    build_scenario,
    format_contention_report,
    run_scenario,
    run_synchronous,
)
from repro.hardware import HardwareCatalog, HardwareConfig, ndp_catalog
from repro.integration import RecommendationService
from repro.workloads import BurstyArrivals, ClosedLoopArrivals, PoissonArrivals

from conftest import constant_workload as _constant_workload


class TestArrivalProcesses:
    def test_poisson_times_are_sorted_and_positive(self):
        times = PoissonArrivals(rate_per_second=0.5).arrival_times(
            50, np.random.default_rng(0)
        )
        assert len(times) == 50
        assert all(t > 0 for t in times)
        assert times == sorted(times)

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate_per_second=0.0)

    def test_bursty_times_arrive_in_periodic_batches(self):
        process = BurstyArrivals(burst_size=3, burst_interval_seconds=10.0)
        times = process.arrival_times(7, np.random.default_rng(0))
        assert times == [0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 20.0]

    def test_bursty_jitter_spreads_within_burst(self):
        process = BurstyArrivals(burst_size=4, burst_interval_seconds=100.0, jitter_seconds=5.0)
        times = process.arrival_times(4, np.random.default_rng(0))
        assert times == sorted(times)
        assert all(0.0 <= t <= 5.0 for t in times)
        assert len(set(times)) > 1

    def test_bursty_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BurstyArrivals(burst_size=0, burst_interval_seconds=1.0)
        with pytest.raises(ValueError):
            BurstyArrivals(burst_size=1, burst_interval_seconds=0.0)

    def test_closed_loop_validates(self):
        with pytest.raises(ValueError):
            ClosedLoopArrivals(concurrency=0)
        with pytest.raises(ValueError):
            ClosedLoopArrivals(think_time_seconds=-1.0)


class TestQueueInclusiveRegret:
    def _outcome(self, queue_seconds, chosen_runtime=14.0, best_runtime=10.0, i=0):
        return RoundOutcome(
            round_index=i,
            chosen_hardware="H1",
            best_hardware="H0",
            observed_runtime=15.0,
            best_expected_runtime=best_runtime,
            expected_runtime_on_chosen=chosen_runtime,
            explored=False,
            queue_seconds=queue_seconds,
        )

    def test_queue_inclusive_adds_waiting_time(self):
        outcome = self._outcome(queue_seconds=6.0)
        assert outcome.runtime_regret == 4.0
        assert outcome.queue_inclusive_regret == 10.0

    def test_defaults_to_zero_queue(self):
        outcome = RoundOutcome(0, "H0", "H0", 10.0, 10.0, 10.0, False)
        assert outcome.queue_seconds == 0.0
        assert outcome.queue_inclusive_regret == outcome.runtime_regret

    def test_negative_queue_rejected(self):
        with pytest.raises(ValueError):
            self._outcome(queue_seconds=-1.0)

    def test_ledger_accumulates_queue_regret(self):
        ledger = RegretLedger()
        ledger.record(self._outcome(queue_seconds=6.0, i=0))
        ledger.record(self._outcome(queue_seconds=0.0, i=1))
        assert ledger.cumulative_queue_inclusive_regret().tolist() == [10.0, 14.0]
        assert ledger.total_queue_seconds() == 6.0
        summary = ledger.summary()
        assert summary["queue_inclusive_regret"] == 14.0
        assert summary["total_queue_seconds"] == 6.0

    def test_empty_ledger_has_queue_keys(self):
        summary = RegretLedger().summary()
        assert summary["queue_inclusive_regret"] == 0.0
        assert summary["total_queue_seconds"] == 0.0


class TestScenarioRegistry:
    def test_all_registered_scenarios_build(self):
        for name in CONTENTION_SCENARIOS:
            scenario = build_scenario(name, seed=1)
            assert scenario.name == name
            assert scenario.tenants and scenario.nodes

    def test_expected_suite_names(self):
        assert {"zero-contention", "light", "saturated", "mixed-tenants"} <= set(
            CONTENTION_SCENARIOS
        )

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            build_scenario("nope")

    def test_tenant_spec_validation(self):
        catalog = ndp_catalog()
        workload = _constant_workload({"H0": 1.0, "H1": 1.0, "H2": 1.0})
        with pytest.raises(ValueError):
            TenantSpec("t", workload, catalog, ClosedLoopArrivals(), n_workflows=0)
        with pytest.raises(ValueError):
            TenantSpec(
                "t",
                workload,
                catalog,
                ClosedLoopArrivals(),
                n_workflows=3,
                features=[{"x": 0.0}],
            )

    def test_duplicate_applications_rejected(self):
        catalog = ndp_catalog()
        workload = _constant_workload({"H0": 1.0, "H1": 1.0, "H2": 1.0})
        tenant = TenantSpec("t", workload, catalog, ClosedLoopArrivals(), n_workflows=1)
        with pytest.raises(ValueError, match="unique"):
            ContentionScenario(
                name="dup",
                description="",
                tenants=(tenant, tenant),
                nodes=(Node("n", cpus=8, memory_gb=32),),
            )

    def test_union_catalog_name_conflict_rejected(self):
        cat_a = HardwareCatalog([HardwareConfig("H0", cpus=2, memory_gb=16)])
        cat_b = HardwareCatalog([HardwareConfig("H0", cpus=4, memory_gb=16)])
        wl_a = _constant_workload({"H0": 1.0}, name="a")
        wl_b = _constant_workload({"H0": 1.0}, name="b")
        scenario = ContentionScenario(
            name="conflict",
            description="",
            tenants=(
                TenantSpec("a", wl_a, cat_a, ClosedLoopArrivals(), n_workflows=1),
                TenantSpec("b", wl_b, cat_b, ClosedLoopArrivals(), n_workflows=1),
            ),
            nodes=(Node("n", cpus=8, memory_gb=32),),
        )
        with pytest.raises(ValueError, match="different"):
            scenario.union_catalog()


class TestZeroContentionParity:
    """The queued path must reproduce the synchronous loop exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decisions_and_runtimes_identical(self, seed):
        queued = run_scenario(build_scenario("zero-contention", seed=seed))
        synchronous = run_synchronous(build_scenario("zero-contention", seed=seed))
        q, s = queued.tenants["solo"], synchronous.tenants["solo"]
        assert q.decisions == s.decisions
        assert q.runtimes == s.runtimes
        q_rounds, s_rounds = q.ledger.rounds, s.ledger.rounds
        assert [r.chosen_hardware for r in q_rounds] == [r.chosen_hardware for r in s_rounds]
        assert [r.explored for r in q_rounds] == [r.explored for r in s_rounds]

    def test_zero_contention_really_has_no_queueing(self):
        result = run_scenario(build_scenario("zero-contention", seed=0))
        assert result.queue_delays().max() == 0.0
        summary = result.summary()
        assert summary["queue_inclusive_regret"] == pytest.approx(
            summary["cumulative_regret"]
        )

    def test_synchronous_reference_requires_single_tenant(self):
        with pytest.raises(ValueError, match="one tenant"):
            run_synchronous(build_scenario("light", seed=0))


class TestSaturatedAccounting:
    def test_saturation_produces_queue_delay_and_costs(self):
        result = run_scenario(build_scenario("saturated", seed=0))
        summary = result.summary()
        assert summary["workflows"] == 40.0
        assert summary["mean_queue_seconds"] > 0.0
        assert summary["max_queue_seconds"] >= summary["p95_queue_seconds"]
        assert summary["occupancy_cost"] > 0.0
        assert summary["makespan_seconds"] > 0.0
        # Queueing strictly inflates the regret relative to the
        # contention-free accounting.
        assert summary["queue_inclusive_regret"] > summary["cumulative_regret"]
        assert summary["queue_inclusive_regret"] == pytest.approx(
            summary["cumulative_regret"] + summary["total_queue_seconds"]
        )

    def test_rows_arrive_in_event_order(self):
        result = run_scenario(build_scenario("saturated", seed=0))
        finish_times = [row["finish_time"] for row in result.rows]
        assert finish_times == sorted(finish_times)
        assert len(result.rows) == 40

    def test_occupancy_cost_matches_row_sum(self):
        result = run_scenario(build_scenario("saturated", seed=0))
        assert result.total_occupancy_cost == pytest.approx(
            sum(row["occupancy_cost"] for row in result.rows)
        )

    def test_to_frame_round_trips_rows(self):
        result = run_scenario(build_scenario("saturated", seed=0))
        frame = result.to_frame()
        assert frame.shape[0] == len(result.rows)
        assert "queue_seconds" in frame
        assert "queue_inclusive_regret" in frame


class TestScenarioSuite:
    def test_light_scenario_queues_little(self):
        summary = run_scenario(build_scenario("light", seed=0)).summary()
        assert summary["mean_queue_seconds"] < 10.0
        assert summary["workflows"] == 50.0

    def test_mixed_tenants_all_streams_complete(self):
        result = run_scenario(build_scenario("mixed-tenants", seed=0))
        assert set(result.tenants) == {"fire-science", "linear-algebra", "etl-pipeline"}
        scenario = build_scenario("mixed-tenants", seed=0)
        for tenant in scenario.tenants:
            assert len(result.tenants[tenant.name].ledger) == tenant.n_workflows

    def test_report_renders(self):
        result = run_scenario(build_scenario("light", seed=0))
        text = format_contention_report(result)
        assert "scenario summary" in text
        assert "queue_inclusive_regret" in text

    def test_determinism_same_seed_same_result(self):
        a = run_scenario(build_scenario("saturated", seed=7)).summary()
        b = run_scenario(build_scenario("saturated", seed=7)).summary()
        assert a == b


class TestClosedLoopConcurrency:
    def test_concurrency_bounds_in_flight_workflows(self):
        catalog = ndp_catalog()
        workload = _constant_workload({"H0": 10.0, "H1": 10.0, "H2": 10.0})
        scenario = ContentionScenario(
            name="closed",
            description="",
            tenants=(
                TenantSpec(
                    "loop",
                    workload,
                    catalog,
                    ClosedLoopArrivals(concurrency=2),
                    n_workflows=6,
                ),
            ),
            nodes=(Node("n", cpus=64, memory_gb=256),),
            seed=0,
        )
        result = run_scenario(scenario)
        # Two workflows run at a time, 10 s each: makespan is 3 waves.
        assert result.makespan_seconds == pytest.approx(30.0)
        assert result.queue_delays().max() == 0.0

    def test_simultaneous_completions_near_stream_end_do_not_over_submit(self):
        """Regression: two same-instant completions with one workflow left
        must enqueue exactly one refill arrival, not one each (IndexError)."""
        catalog = ndp_catalog()
        workload = _constant_workload({"H0": 10.0, "H1": 10.0, "H2": 10.0})
        scenario = ContentionScenario(
            name="odd",
            description="",
            tenants=(
                TenantSpec(
                    "loop",
                    workload,
                    catalog,
                    ClosedLoopArrivals(concurrency=2),
                    n_workflows=5,
                ),
            ),
            nodes=(Node("n", cpus=64, memory_gb=256),),
            seed=0,
        )
        result = run_scenario(scenario)
        assert result.summary()["workflows"] == 5.0
        assert result.makespan_seconds == pytest.approx(30.0)

    def test_think_time_delays_next_submission(self):
        catalog = ndp_catalog()
        workload = _constant_workload({"H0": 10.0, "H1": 10.0, "H2": 10.0})
        scenario = ContentionScenario(
            name="think",
            description="",
            tenants=(
                TenantSpec(
                    "loop",
                    workload,
                    catalog,
                    ClosedLoopArrivals(concurrency=1, think_time_seconds=5.0),
                    n_workflows=3,
                ),
            ),
            nodes=(Node("n", cpus=64, memory_gb=256),),
            seed=0,
        )
        result = run_scenario(scenario)
        # 10s run, 5s think, repeated: completions at 10, 25, 40.
        assert [row["finish_time"] for row in result.rows] == pytest.approx(
            [10.0, 25.0, 40.0]
        )


class TestDirectRecommenders:
    """The engine drives each tenant's BanditWare itself, with no service."""

    @pytest.mark.parametrize("name", sorted(CONTENTION_SCENARIOS))
    def test_each_completion_is_observed_exactly_once(self, name, monkeypatch):
        def no_service(self, *args, **kwargs):
            raise AssertionError("a scenario run must not build a RecommendationService")

        observed_rows = []
        observe_batch = BanditWare.observe_batch

        def counting_observe_batch(self, features_batch, *args, **kwargs):
            observed_rows.append(len(features_batch))
            return observe_batch(self, features_batch, *args, **kwargs)

        monkeypatch.setattr(RecommendationService, "__init__", no_service)
        monkeypatch.setattr(BanditWare, "observe_batch", counting_observe_batch)
        scenario = build_scenario(name, seed=0)
        result = run_scenario(scenario)
        warm_start_rows = sum(t.warm_start_runs * len(t.catalog) for t in scenario.tenants)
        assert len(result.rows) == sum(t.n_workflows for t in scenario.tenants)
        assert sum(observed_rows) == warm_start_rows + len(result.rows)


@pytest.mark.slow
class TestSaturatedSweepSlow:
    """Larger saturated sweep kept out of tier-1 (see pytest.ini addopts)."""

    def test_queueing_grows_with_burst_size(self):
        from repro.evaluation.contention import _scenario_saturated

        means = []
        for burst in (4, 8, 16):
            base = _scenario_saturated(seed=0)
            tenant = base.tenants[0]
            scenario = ContentionScenario(
                name=f"saturated-{burst}",
                description="",
                tenants=(
                    TenantSpec(
                        tenant.name,
                        tenant.workload,
                        tenant.catalog,
                        BurstyArrivals(burst_size=burst, burst_interval_seconds=120.0),
                        n_workflows=64,
                        warm_start_runs=tenant.warm_start_runs,
                        tolerance=tenant.tolerance,
                    ),
                ),
                nodes=base.nodes,
                seed=0,
            )
            means.append(run_scenario(scenario).summary()["mean_queue_seconds"])
        assert means[0] < means[-1]
