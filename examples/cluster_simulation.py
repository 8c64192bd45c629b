"""Resource contention on a shared cluster: why hardware sizing matters.

The paper's introduction motivates BanditWare with the costs of
misallocation on shared platforms: contention, queueing and wasted capacity.
This example makes that concrete with the Kubernetes-like cluster simulator.
Two allocation strategies submit the same 30 Cycles workflows to the same
small cluster:

* **oversized**: every workflow requests the largest configuration,
* **banditware**: each workflow requests what a warm-started BanditWare
  recommender (with a 60 s tolerance) suggests.

Because oversized requests exhaust the nodes' CPUs, later pods queue; the
right-sized requests keep the cluster flowing and finish the batch sooner.

Run with::

    python examples/cluster_simulation.py
"""

from __future__ import annotations

import numpy as np

from repro import BanditWare, CyclesWorkload, ToleranceConfig, synthetic_catalog
from repro.cluster import BackfillScheduler, BestFit, ClusterSimulator, Node
from repro.workloads import TraceGenerator


def build_cluster(workload, catalog, seed):
    nodes = [
        Node("node-a", cpus=12, memory_gb=48),
        Node("node-b", cpus=12, memory_gb=48),
    ]
    return ClusterSimulator(
        workload=workload,
        catalog=catalog,
        nodes=nodes,
        scheduler=BackfillScheduler(placement=BestFit()),
        seed=seed,
    )


def submit_batch(cluster, workflows, choose_hardware):
    for features in workflows:
        cluster.submit(features, choose_hardware(features), at_time=0.0)
    runs = cluster.run_until_idle()
    total_queue = sum(r.queue_seconds for r in runs)
    return cluster.now, total_queue, runs


def main() -> None:
    catalog = synthetic_catalog(4)
    workload = CyclesWorkload()
    rng = np.random.default_rng(3)
    workflows = [workload.sample_features(rng) for _ in range(30)]

    # Warm-start a recommender from a small historical trace.  Recommendations
    # allow a 50% slowdown per workflow in exchange for lighter-weight
    # requests, which is what keeps the shared cluster flowing.
    history = TraceGenerator(workload, catalog, seed=9).generate_frame(15, grid=True)
    tolerance = ToleranceConfig(ratio=0.5)
    recommender = BanditWare(
        catalog=catalog,
        feature_names=["num_tasks"],
        tolerance=tolerance,
        seed=1,
    )
    recommender.warm_start(history)

    largest = catalog[len(catalog) - 1]

    oversized_cluster = build_cluster(workload, catalog, seed=0)
    makespan_big, queue_big, _ = submit_batch(
        oversized_cluster, workflows, lambda features: largest
    )

    bandit_cluster = build_cluster(workload, catalog, seed=0)
    makespan_bw, queue_bw, runs_bw = submit_batch(
        bandit_cluster,
        workflows,
        lambda features: recommender.best_hardware(features, tolerance=tolerance),
    )

    print(f"30 Cycles workflows on a 2-node, 24-core cluster\n")
    print(f"{'strategy':<12} {'batch makespan':>15} {'total queueing':>15}")
    print(f"{'oversized':<12} {makespan_big:>14.0f}s {queue_big:>14.0f}s")
    print(f"{'banditware':<12} {makespan_bw:>14.0f}s {queue_bw:>14.0f}s")

    chosen = {}
    for run in runs_bw:
        chosen[run.record.hardware] = chosen.get(run.record.hardware, 0) + 1
    print(f"\nBanditWare's hardware mix: {chosen}")
    if makespan_bw < makespan_big:
        saved = (1.0 - makespan_bw / makespan_big) * 100
        print(f"right-sizing finished the batch {saved:.1f}% sooner and queued far less.")


if __name__ == "__main__":
    main()
