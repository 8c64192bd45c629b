"""BurnPro3D on the National Data Platform: the service-level view.

The paper positions BanditWare as a recommendation service for the National
Data Platform (NDP): fire scientists submit prescribed-burn simulations, the
platform recommends a Kubernetes resource configuration, and the observed
runtimes feed back into the recommender.  This example exercises that whole
path using the simulated NDP integration layer:

1. seed the platform's run-history store with historical BP3D runs,
2. register the application (warm-starting its recommender from history),
3. stream new burn-unit simulations through the service against the cluster
   simulator, with a 5 % slowdown tolerance so near-equivalent but cheaper
   configurations are preferred,
4. report what was recommended and how much resource-time was saved relative
   to always using the largest configuration.

Run with::

    python examples/burnpro3d_recommendation.py
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterSimulator
from repro.core import ToleranceConfig
from repro.data import build_bp3d_dataset
from repro.hardware import footprint, occupancy_cost
from repro.integration import RecommendationService, RunHistoryStore
from repro.utils.logging import EventLog
from repro.workloads import RunRecord


def main() -> None:
    bundle = build_bp3d_dataset()
    catalog = bundle.catalog
    workload = bundle.workload

    # 1. Platform-side history: a subset of the historical 1316-run dataset.
    history = RunHistoryStore()
    for i, row in enumerate(bundle.frame.head(200).iterrows()):
        history.add(
            RunRecord(
                run_id=f"hist-{i:04d}",
                application=workload.name,
                hardware=str(row["hardware"]),
                runtime_seconds=float(row["runtime_seconds"]),
                features={name: float(row[name]) for name in workload.feature_names},
            )
        )
    print(f"seeded run-history store with {len(history)} historical BP3D runs")

    # 2. Register the application; its recommender warm-starts from history.
    log = EventLog()
    service = RecommendationService(
        catalog=catalog,
        history=history,
        tolerance=ToleranceConfig(ratio=0.05, seconds=0.0),
        seed=7,
        log=log,
    )
    recommender = service.register_application(
        workload.name,
        owner="wifire",
        feature_names=workload.feature_names,
        description="QUIC-Fire prescribed burn simulations (BurnPro3D)",
    )
    print(f"warm-started observation counts: {recommender.observation_counts()}\n")

    # 3. Stream new simulations through the service.
    cluster = ClusterSimulator(workload=workload, catalog=catalog, seed=3)
    rng = np.random.default_rng(42)
    n_workflows = 40
    resource_seconds_used = 0.0
    resource_seconds_biggest = 0.0
    biggest = max(catalog, key=lambda hw: footprint(hw.cpus, hw.memory_gb, hw.gpus))
    usage = {name: 0 for name in catalog.names}

    for _ in range(n_workflows):
        features = workload.sample_features(rng)
        ticket = service.run_workflow(workload.name, features, cluster)
        chosen = ticket.recommendation.hardware
        usage[chosen.name] += 1
        resource_seconds_used += occupancy_cost(chosen, ticket.observed_runtime)
        biggest_runtime = workload.expected_runtime(features, biggest)
        resource_seconds_biggest += occupancy_cost(biggest, biggest_runtime)

    print(f"submitted {n_workflows} burn-unit simulations through the service")
    print(f"recommendations per hardware: {usage}")
    saved = 1.0 - resource_seconds_used / resource_seconds_biggest
    print(
        f"resource-seconds vs always using {biggest.name}: "
        f"{resource_seconds_used:,.0f} vs {resource_seconds_biggest:,.0f} "
        f"({saved * 100:.1f}% saved)"
    )

    # 4. A peek at the service's decision log.
    print("\nlast three service decisions:")
    for record in log.filter(event="recommendation")[-3:]:
        print(f"  {record}")


if __name__ == "__main__":
    main()
