"""Autoscaling, priority/preemption and queue-aware rewards, end to end.

Three additions to the cluster-in-the-loop evaluation, each shown on its
registered scenario:

* **priority-tiers** -- a high-priority interactive tier shares one node with
  a bursty batch tier under the :class:`~repro.cluster.PriorityScheduler`.
  Interactive pods preempt batch pods; evictions are checkpoint-free
  requeues, so the batch tier pays both extra queueing and *wasted*
  resource-seconds, which the accounting reports separately.
* **autoscale-burst** -- a bursty campaign overflows one 8-core node backed
  by an :class:`~repro.cluster.AutoscalingNodePool`.  Scale-ups land after a
  provisioning delay (visible as queueing before each burst drains) and idle
  pool nodes are drained; the pool's provision-to-drain lifetime is charged
  through :func:`~repro.hardware.node_occupancy_cost`.
* **queue-feedback** -- the same campaign with the opt-in queue-inclusive
  reward mode (:class:`~repro.core.RewardConfig`): observed queueing delay
  inflates each arm's training target, so the bandit learns that the
  solo-fastest, node-hogging arm is *effectively* slower than the lean arm
  that packs four-per-node, and the queue-inclusive regret drops.

Run with::

    python examples/autoscale_priority.py
"""

from __future__ import annotations

from repro.evaluation import build_scenario, format_contention_report, run_scenario


def main() -> None:
    print("priority/preemption and autoscaling scenarios (seed=0)\n")

    # ------------------------------------------------------------------ #
    priority = run_scenario(build_scenario("priority-tiers", seed=0))
    print(format_contention_report(priority))
    queues = {}
    for row in priority.rows:
        queues.setdefault(str(row["tenant"]), []).append(float(row["queue_seconds"]))
    for tenant, delays in sorted(queues.items()):
        print(
            f"  {tenant:<18} mean queue {sum(delays) / len(delays):10.1f} s "
            f"over {len(delays)} workflows"
        )
    preempted = [row for row in priority.rows if int(row["preemptions"]) > 0]
    wasted = sum(float(row["wasted_seconds"]) for row in preempted)
    print(
        f"  preempted workflows: {len(preempted)} "
        f"(all batch-tier), {wasted:.0f} s of discarded execution\n"
    )

    # ------------------------------------------------------------------ #
    blind = run_scenario(build_scenario("autoscale-burst", seed=0))
    print(format_contention_report(blind))
    ups = sum(1 for e in blind.scale_events if e.kind == "node_provisioned")
    downs = sum(1 for e in blind.scale_events if e.kind == "node_drained")
    print(f"  pool nodes provisioned {ups}x, drained {downs}x\n")

    # ------------------------------------------------------------------ #
    aware = run_scenario(build_scenario("queue-feedback", seed=0))
    print(format_contention_report(aware))

    def lean_share(result):
        decisions = result.tenants["burst-campaign"].decisions
        return sum(d == "lean" for d in decisions) / len(decisions)

    blind_summary = blind.summary()
    aware_summary = aware.summary()
    print(
        f"\n  lean-arm share: {lean_share(blind):.0%} queue-blind -> "
        f"{lean_share(aware):.0%} queue-aware"
    )
    print(
        f"  queue-inclusive regret: {blind_summary['queue_inclusive_regret']:.0f} s "
        f"queue-blind -> {aware_summary['queue_inclusive_regret']:.0f} s queue-aware"
    )
    improved = (
        aware_summary["queue_inclusive_regret"] < blind_summary["queue_inclusive_regret"]
    )
    print(f"  queue-aware rewards reduce queue-inclusive regret: {improved}")


if __name__ == "__main__":
    main()
