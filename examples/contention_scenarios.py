"""Cluster-in-the-loop evaluation: what contention does to recommendations.

The paper motivates BanditWare with the cost of resource misallocation on
*shared* platforms, but the classic evaluation protocol runs every workflow
alone.  This example plays the contention scenario suite through the queued
cluster simulator instead: every recommendation becomes a pod, pods from all
tenants share the same nodes, and completions reach each application's
recommender in event order.

Three things to look for in the output:

* **light** -- at ~10% utilisation queueing is negligible and the
  queue-inclusive regret is essentially the classic runtime regret;
* **saturated** -- a bursty campaign against one 8-core node queues for far
  longer than it computes, so the queue-inclusive regret dwarfs the
  runtime-only number the paper's contention-free evaluation would report;
* **zero-contention** -- the queued path degenerates to the paper's loop, so
  its queue-inclusive regret equals its runtime regret.

Run with::

    python examples/contention_scenarios.py
"""

from __future__ import annotations

from repro.evaluation import build_scenario, format_contention_report, run_scenario


def main() -> None:
    print("contention scenario suite (seed=0)\n")
    header = (
        f"{'scenario':<16} {'workflows':>9} {'makespan':>10} {'mean queue':>11} "
        f"{'occupancy':>10} {'regret':>9} {'q-regret':>9}"
    )
    print(header)
    print("-" * len(header))
    for name in ("zero-contention", "light", "saturated", "mixed-tenants"):
        summary = run_scenario(build_scenario(name, seed=0)).summary()
        print(
            f"{name:<16} {summary['workflows']:>9.0f} {summary['makespan_seconds']:>9.0f}s "
            f"{summary['mean_queue_seconds']:>10.1f}s {summary['occupancy_cost']:>10.0f} "
            f"{summary['cumulative_regret']:>8.0f}s {summary['queue_inclusive_regret']:>8.0f}s"
        )

    print("\nqueueing turns small allocation mistakes into large latency regret:\n")
    print(format_contention_report(run_scenario(build_scenario("saturated", seed=0))))


if __name__ == "__main__":
    main()
