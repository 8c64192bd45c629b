"""Memory-budget regression gates for the evaluation engine and simulator kernel.

mlbench-style allocation budgets: each test carries a
``@pytest.mark.limit_memory("N MB")`` marker (enforced by pytest-memray in
environments that have the plugin installed) *and* self-enforces the same
budget with :mod:`tracemalloc`, so the gate holds in this repo's
plugin-free environment too.  The budgets are deliberately above the
measured peaks (sweep ~0.7 MB, stress ~4.3 MB, paper-scale simulation
~3.9 MB when the gates were set): they exist to catch per-object or
per-event allocation blowups, not to pin the allocator's exact behaviour.
"""

from __future__ import annotations

import tracemalloc

import pytest


def _budget_mb(request) -> float:
    """The test's own ``limit_memory`` marker value, in MiB.

    Reading the marker keeps the tracemalloc fallback and the
    pytest-memray enforcement on the same number by construction.
    """
    marker = request.node.get_closest_marker("limit_memory")
    assert marker is not None, "memory-gate tests must carry @pytest.mark.limit_memory"
    text = marker.args[0].strip()
    assert text.endswith("MB"), f"budget must be in MB, got {text!r}"
    return float(text[:-2].strip())


def _traced_peak_mb(fn) -> float:
    """Peak Python allocation (MiB) while running ``fn``."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


@pytest.mark.limit_memory("8 MB")
def test_replication_sweep_memory_budget(request):
    """A 4-replication interference-heavy sweep stays within its budget.

    The replication path re-runs the full scenario per seed; the gate
    catches results accidentally accumulating across replications (e.g.
    keeping every pod object of every replication alive).
    """
    from repro.evaluation.contention import build_scenario
    from repro.evaluation.engine import run_scenario_replications

    def sweep():
        scenario = build_scenario("interference-heavy", seed=0)
        run_scenario_replications(scenario, 4, n_workers=1)

    peak = _traced_peak_mb(sweep)
    assert peak < _budget_mb(request), f"replication sweep peaked at {peak:.1f} MiB"


@pytest.mark.limit_memory("16 MB")
def test_array_kernel_stress_memory_budget(request):
    """The 128-pod single-node kernel stress stays within its budget.

    128 identical-shaped pods (2 CPUs / 8 GiB each) arrive one per second
    on a node big enough to run them all side by side under
    ``LinearSlowdown``, so every arrival and finish reschedules every
    resident.  The gate catches per-event payload copies or per-reschedule
    copies of the resident list creeping into the hot path.
    """
    from repro import HardwareCatalog, HardwareConfig, LinearRuntimeWorkload
    from repro.cluster import ClusterSimulator, LinearSlowdown, Node

    n_pods = 128

    def stress():
        workload = LinearRuntimeWorkload(
            feature_ranges={"size": (1.0, 8.0)},
            coefficients={"s": ({"size": 100.0}, 50.0)},
            noise_sigma=0.0,
            name="stress",
        )
        sim = ClusterSimulator(
            nodes=[Node("fat", cpus=256, memory_gb=1024)],
            catalog=HardwareCatalog([HardwareConfig("s", cpus=2, memory_gb=8)]),
            workload=workload,
            seed=0,
            interference=LinearSlowdown(alpha=0.5),
        )
        for i in range(n_pods):
            sim.submit({"size": 1.0 + (i % 7)}, "s", at_time=float(i))
        assert len(sim.run_until_idle()) == n_pods

    peak = _traced_peak_mb(stress)
    assert peak < _budget_mb(request), f"kernel stress peaked at {peak:.1f} MiB"


@pytest.mark.limit_memory("8 MB")
def test_paper_scale_online_simulation_memory_budget(request):
    """A paper-scale (100 x 50) Figure 7 simulation stays within its budget.

    The lockstep block keeps O(replications x rounds x parameters) state and
    scores one replication at a time; the gate catches a block that stacks
    the scoring of all replications into one prediction tensor.
    """
    from repro.evaluation import build_experiment

    simulation = build_experiment("bp3d_all_features", n_simulations=100, n_rounds=50).simulation()
    peak = _traced_peak_mb(simulation.run)
    assert peak < _budget_mb(request), f"paper-scale simulation peaked at {peak:.1f} MiB"


@pytest.mark.limit_memory("8 MB")
def test_sustained_service_traffic_memory_budget(request):
    """A sustained 600-request mixed-traffic run stays within its budget.

    One caller drives the ``service-zipf`` load service (32 applications,
    2 shards) with Zipf-skewed submissions, keeps at most 32 tickets
    pending, and completes the oldest half of the window, one ticket at a
    time, each time it fills.  The service retains
    a ticket per request by design (history is the product), so the gate
    pins the *constant factor*: it catches per-request state beyond the
    ticket and its history row, or completed work kept alive elsewhere.
    """
    import collections

    import numpy as np

    from repro.evaluation.service_load import (
        ServiceLoadConfig,
        ZipfianAppMix,
        build_load_service,
    )

    n_requests, window = 600, 32

    def sustained():
        config = ServiceLoadConfig(n_shards=2)
        service, workloads = build_load_service(config)
        apps = list(workloads)
        rng = np.random.default_rng(0)
        weights = ZipfianAppMix(config.n_apps, config.zipf_exponent).weights()
        pending = collections.deque()

        def complete(ticket):
            runtime = workloads[ticket.application].observed_runtime(
                ticket.features, ticket.recommendation.hardware, rng
            )
            service.complete_workflow(ticket.ticket_id, runtime)

        for index in rng.choice(config.n_apps, size=n_requests, p=weights):
            app = apps[index]
            pending.append(
                service.submit_workflow(app, workloads[app].sample_features(rng))
            )
            if len(pending) == window:
                for _ in range(window // 2):
                    complete(pending.popleft())
        for ticket in pending:
            complete(ticket)
        assert not service.pending_tickets()
        assert len(service.history) == n_requests

    peak = _traced_peak_mb(sustained)
    assert peak < _budget_mb(request), f"sustained traffic peaked at {peak:.1f} MiB"
