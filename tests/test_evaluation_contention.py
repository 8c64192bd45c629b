"""Tests for the contention-aware, cluster-in-the-loop evaluation."""

import hashlib
import json

import numpy as np
import pytest

from repro.cluster import Node
from repro.core import BanditWare
from repro.evaluation import (
    CONTENTION_SCENARIOS,
    ContentionScenario,
    TenantSpec,
    build_scenario,
    format_contention_report,
    run_scenario,
)
from repro.hardware import HardwareCatalog, HardwareConfig, ndp_catalog
from repro.integration import RecommendationService
from repro.workloads import BurstyArrivals, ClosedLoopArrivals, PoissonArrivals

from conftest import accounted
from conftest import constant_workload as _constant_workload
from conftest import synchronous_run


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


class TestAccountingRows:
    """Each completion is recorded once: one row, regret included."""

    def test_row_carries_the_regret_columns(self):
        accountant, _ = accounted([("H1", 18.0, 12.0, 6.0, True)])
        (row,) = accountant.rows
        assert row["runtime_regret"] == 4.0  # 14 s expected on H1 vs 10 s on H0
        assert row["queue_inclusive_regret"] == 10.0  # plus 6 s queueing
        assert row["interference_seconds"] == 6.0  # observed 18 s vs planned 12 s
        assert row["slowdown"] == 1.5
        assert row["correct"] is False
        assert row["explored"] is True

    def test_oracle_pick_has_no_regret(self):
        accountant, _ = accounted([("H0", 10.0, 10.0, 0.0, False)])
        (row,) = accountant.rows
        assert row["runtime_regret"] == 0.0
        assert row["queue_inclusive_regret"] == 0.0
        assert row["correct"] is True

    def test_unplanned_run_has_no_interference(self):
        accountant, _ = accounted([("H1", 15.0, None, 0.0, False)])
        (row,) = accountant.rows
        assert row["interference_seconds"] == 0.0
        assert row["planned_seconds"] == 15.0
        assert row["slowdown"] == 1.0
        assert row["queue_inclusive_regret"] == row["runtime_regret"]

    def test_tenant_holds_the_same_rows_numbered_by_round(self):
        accountant, outcome = accounted(
            [("H0", 10.0, 10.0, 0.0, False), ("H1", 14.0, 14.0, 0.0, True)]
        )
        assert all(a is b for a, b in zip(accountant.rows, outcome.rows))
        assert [row["round"] for row in outcome.rows] == [0, 1]

    def test_summary_folds_the_rows(self):
        _, outcome = accounted(
            [("H1", 18.0, 12.0, 6.0, True), ("H0", 10.0, 10.0, 0.0, False)]
        )
        assert outcome.summary() == {
            "rounds": 2.0,
            "accuracy": 0.5,
            "cumulative_regret": 4.0,
            "queue_inclusive_regret": 10.0,
            "interference_inclusive_regret": 10.0,
            "total_queue_seconds": 6.0,
            "total_interference_seconds": 6.0,
            "mean_slowdown": 1.25,
            "exploration_fraction": 0.5,
            "total_runtime": 28.0,
        }

    def test_final_accuracy_is_fraction_correct(self):
        _, outcome = accounted(
            [(hw, 10.0, 10.0, 0.0, False) for hw in ("H0", "H1", "H0", "H0")]
        )
        assert outcome.summary()["accuracy"] == 0.75

    def test_totals_add_left_to_right(self):
        # 0.1 + 0.2 + 0.3 is 0.6000000000000001 added left to right and 0.6
        # compensated: the report's totals are the former.
        _, outcome = accounted(
            [("H0", 10.0, 10.0, q, False) for q in (0.1, 0.2, 0.3)]
        )
        assert outcome.summary()["total_queue_seconds"] == (0.1 + 0.2) + 0.3

    def test_empty_summary(self):
        _, outcome = accounted([])
        assert outcome.summary() == {
            "rounds": 0,
            "accuracy": 0.0,
            "cumulative_regret": 0.0,
            "queue_inclusive_regret": 0.0,
            "interference_inclusive_regret": 0.0,
            "total_queue_seconds": 0.0,
            "total_interference_seconds": 0.0,
            "mean_slowdown": 1.0,
            "exploration_fraction": 0.0,
            "total_runtime": 0.0,
        }


#: SHA-256 over ``float.hex`` of every tenant's ``summary()`` in every
#: registered scenario, per seed.  The frontier fingerprints pin each
#: scenario's summary and rows, not the per-tenant table ``run-contention``
#: prints; these were captured with the engine that still kept a regret
#: ledger per tenant beside the accounting rows.
TENANT_SUMMARY_PINS = {
    0: "abf2347b8d206b87b0d3b8ed829ee8ff8f31b81849e87a75cdaf79e6135e9a03",
    5: "3545434a4ec65f5949ae2bab2d71250fb248586fed90a2417e768e8e94d358ea",
}


def tenant_summary_digest(seed):
    table = {
        name: {
            tenant: {
                key: value.hex() if isinstance(value, float) else repr(value)
                for key, value in outcome.summary().items()
            }
            for tenant, outcome in run_scenario(build_scenario(name, seed=seed)).tenants.items()
        }
        for name in sorted(CONTENTION_SCENARIOS)
    }
    return hashlib.sha256(json.dumps(table, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(TENANT_SUMMARY_PINS))
def test_every_tenant_summary_is_bit_identical(seed):
    assert tenant_summary_digest(seed) == TENANT_SUMMARY_PINS[seed]


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

    @pytest.mark.parametrize(
        "field, value",
        [("n_workflows", True), ("n_workflows", 2.5), ("warm_start_runs", 1.5), ("warm_start_runs", True)],
    )
    def test_tenant_counts_must_be_integers(self, field, value):
        catalog = ndp_catalog()
        workload = _constant_workload({"H0": 1.0, "H1": 1.0, "H2": 1.0})
        spec = dict(n_workflows=2, warm_start_runs=0)
        spec[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TenantSpec("t", workload, catalog, ClosedLoopArrivals(), **spec)

    @pytest.mark.parametrize("priority", [1.5, True])
    def test_tenant_priority_must_be_an_integer(self, priority):
        catalog = ndp_catalog()
        workload = _constant_workload({"H0": 1.0, "H1": 1.0, "H2": 1.0})
        with pytest.raises(TypeError):
            TenantSpec(
                "t", workload, catalog, ClosedLoopArrivals(), n_workflows=1, priority=priority
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
    """The queued path must reproduce the paper's synchronous loop exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decisions_and_runtimes_identical(self, seed):
        queued = run_scenario(build_scenario("zero-contention", seed=seed))
        reference = synchronous_run(build_scenario("zero-contention", seed=seed))
        q = queued.tenants["solo"]
        assert q.decisions == reference["decisions"]
        assert [row["runtime_seconds"] for row in q.rows] == reference["runtimes"]
        assert [row["hardware"] for row in q.rows] == reference["hardware"]
        assert [row["explored"] for row in q.rows] == reference["explored"]

    def test_zero_contention_really_has_no_queueing(self):
        result = run_scenario(build_scenario("zero-contention", seed=0))
        assert result.queue_delays().max() == 0.0
        summary = result.summary()
        assert summary["queue_inclusive_regret"] == pytest.approx(
            summary["cumulative_regret"]
        )


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
            assert len(result.tenants[tenant.name].rows) == tenant.n_workflows

    def test_tenant_rows_are_the_result_rows(self):
        result = run_scenario(build_scenario("mixed-tenants", seed=0))
        for name, outcome in result.tenants.items():
            mine = [row for row in result.rows if row["tenant"] == name]
            assert len(mine) == len(outcome.rows)
            assert all(a is b for a, b in zip(mine, outcome.rows))
            assert [row["round"] for row in outcome.rows] == list(range(len(mine)))

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
