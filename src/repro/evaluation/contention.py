"""Contention-aware, cluster-in-the-loop evaluation of BanditWare.

The replicated online simulation (:mod:`repro.evaluation.simulation`) scores
the bandit against an idealised, contention-free oracle: every workflow runs
"alone" with zero queueing delay.  The paper's motivation is the opposite
setting -- shared platforms where over-allocation starves co-tenants and
under-allocation inflates runtimes -- so this module evaluates the bandit
*through* the event-driven cluster instead.

This module is a thin frontend over the unified experiment engine
(:mod:`repro.evaluation.engine`): it describes scenarios -- tenants, their
arrival streams, the cluster's nodes, scheduler, autoscaler and reward mode
-- and the engine plays them out:

* several **tenants** (applications), each with its own warm-started
  :class:`~repro.core.BanditWare` recommender, submit workflow streams
  generated by configurable **arrival processes** (Poisson, bursty, or
  closed-loop -- :mod:`repro.workloads.arrivals`);
* every workflow becomes a **pod** on the shared
  :class:`~repro.cluster.ClusterSimulator` via the queued ``submit`` + event
  engine path, so the bandit's arm choices change queueing delay for every
  other tenant; priority classes may preempt (checkpoint-free requeues with
  accounted wasted resource-seconds) and an
  :class:`~repro.cluster.AutoscalingNodePool` may grow/shrink the cluster;
* completions feed back to each tenant's recommender through
  :meth:`BanditWare.observe_batch` **in event order**, carrying queue
  delays and slowdowns for the opt-in shaped reward modes
  (:class:`~repro.core.rewards.RewardConfig`);
* accounting is queue-aware: per-round queue delay, batch makespan,
  :func:`~repro.hardware.occupancy_cost` resource-seconds
  (useful and preemption-wasted), autoscaled node-pool cost, and the
  queue-inclusive regret column of :mod:`repro.core.rewards`;
* execution is **interference-aware** when the scenario carries an
  :class:`~repro.cluster.interference.InterferenceModel`: co-located pods
  slow each other's progress rate down, the bandit observes the *inflated*
  runtimes, and the slowdown/interference-inclusive-regret columns account
  the gap against the contention-free plan.

A zero-contention scenario (single closed-loop tenant, effectively infinite
capacity) reproduces the decisions of the paper's one-workflow-per-round
protocol *exactly* -- the parity tests replay that loop as a test-local
reference -- so the queued path is a strict generalisation of it.

Use the registry::

    from repro.evaluation.contention import build_scenario, run_scenario

    result = run_scenario(build_scenario("saturated", seed=0))
    print(result.summary()["mean_queue_seconds"])

or the CLI: ``repro run-contention --scenario saturated``.  Scenarios are
picklable, so sweeps fan out over a process pool
(:func:`~repro.evaluation.engine.run_scenario_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.autoscaler import AutoscalingNodePool
from repro.cluster.interference import (
    CapacityContention,
    InterferenceModel,
    LinearSlowdown,
)
from repro.cluster.node import Node
from repro.cluster.placement import PlacementPolicy, build_placement
from repro.cluster.scheduler import FIFOScheduler, PriorityScheduler, Scheduler
from repro.core.rewards import RewardConfig
from repro.core.selection import ToleranceConfig
from repro.evaluation.engine import (
    ContentionResult,
    ExperimentEngine,
    TenantOutcome,
    run_scenario_sweep,
)
from repro.hardware import (
    HardwareCatalog,
    HardwareConfig,
    matmul_catalog,
    ndp_catalog,
)
from repro.utils.logging import EventLog
from repro.utils.validation import check_count, check_priority
from repro.workloads import (
    ArrivalProcess,
    BurnPro3DWorkload,
    BurstyArrivals,
    ClosedLoopArrivals,
    LinearRuntimeWorkload,
    MatrixMultiplicationWorkload,
    PoissonArrivals,
)
from repro.workloads.base import WorkloadModel

__all__ = [
    "TenantSpec",
    "ContentionScenario",
    "TenantOutcome",
    "ContentionResult",
    "run_scenario",
    "run_scenario_sweep",
    "build_scenario",
    "scenario_fingerprint",
    "CONTENTION_SCENARIOS",
]


# --------------------------------------------------------------------- #
# Scenario description
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TenantSpec:
    """One tenant: an application with its own recommender and traffic.

    Attributes
    ----------
    name:
        Tenant (owner) name; used in reports.
    workload:
        Application model providing ground-truth runtimes.  Its ``name``
        labels the tenant's runs and accounting rows, so it must be unique
        within a scenario.
    catalog:
        The hardware configurations this application may request (its arm
        space).  May be a subset of the cluster's union catalog.
    arrivals:
        Open-loop arrival process or a closed loop.
    n_workflows:
        Number of workflows the tenant submits.
    tolerance:
        Tolerant-selection configuration for this tenant's recommender.
    features:
        Explicit workflow feature stream; sampled from the workload model
        when omitted.
    warm_start_runs:
        Historical runs *per hardware configuration* seeded into the run
        history before the stream starts (the paper's "small dataset of
        application runs collected previously").
    priority:
        Priority class stamped on this tenant's pods (higher = more
        important); read by priority/preemption schedulers.
    reward:
        Observation shaping for this tenant's recommender; the
        ``queue_inclusive`` mode makes the bandit learn queue-aware
        effective runtimes.
    """

    name: str
    workload: WorkloadModel
    catalog: HardwareCatalog
    arrivals: Union[ArrivalProcess, ClosedLoopArrivals]
    n_workflows: int
    tolerance: Optional[ToleranceConfig] = None
    features: Optional[Sequence[Dict[str, float]]] = None
    warm_start_runs: int = 0
    priority: int = 0
    reward: Optional[RewardConfig] = None

    def __post_init__(self) -> None:
        check_count(self.n_workflows, "n_workflows")
        check_count(self.warm_start_runs, "warm_start_runs", minimum=0)
        check_priority(self.priority)
        if self.features is not None and len(self.features) != self.n_workflows:
            raise ValueError(
                f"explicit feature stream has {len(self.features)} entries "
                f"but n_workflows is {self.n_workflows}"
            )


@dataclass(frozen=True)
class ContentionScenario:
    """A multi-tenant cluster-in-the-loop evaluation setup."""

    name: str
    description: str
    tenants: Tuple[TenantSpec, ...]
    nodes: Tuple[Node, ...]
    scheduler_factory: Callable[[], Scheduler] = FIFOScheduler
    seed: int = 0
    #: Optional elastic node pool attached to the cluster.
    autoscaler: Optional[AutoscalingNodePool] = None
    #: How co-located pods perturb each other's progress rate.  ``None``
    #: (the default) is the null model: observed runtimes equal the drawn
    #: ground truth bit-for-bit, exactly like the pre-interference engine.
    interference: Optional[InterferenceModel] = None
    #: Node-choice policy injected into the scenario's scheduler (the
    #: placement axis, orthogonal to the scheduler's queue discipline).
    #: ``None`` keeps the scheduler's own default -- first-fit for every
    #: registered scenario, which is bit-identical to the pre-placement
    #: engine (pinned by the placement parity suite).
    placement: Optional[PlacementPolicy] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.tenants:
            raise ValueError("a scenario requires at least one tenant")
        if not self.nodes:
            raise ValueError("a scenario requires at least one node")
        applications = [t.workload.name for t in self.tenants]
        if len(set(applications)) != len(applications):
            raise ValueError(f"tenant applications must be unique, got {applications}")

    def fresh_nodes(self) -> List[Node]:
        """Unallocated copies of the scenario's nodes (nodes are stateful)."""
        return [node.clone() for node in self.nodes]

    def union_catalog(self) -> HardwareCatalog:
        """The union of all tenants' catalogs (the cluster-side arm space)."""
        configs: List[HardwareConfig] = []
        by_name: Dict[str, HardwareConfig] = {}
        for tenant in self.tenants:
            for config in tenant.catalog:
                if config.name in by_name:
                    if by_name[config.name] != config:
                        raise ValueError(
                            f"hardware name {config.name!r} maps to different "
                            "configurations in different tenant catalogs"
                        )
                    continue
                by_name[config.name] = config
                configs.append(config)
        return HardwareCatalog(configs)

    def with_queue_feedback(self, queue_weight: float = 1.0) -> "ContentionScenario":
        """A copy of this scenario with queue-aware rewards for every tenant."""
        reward = RewardConfig(mode="queue_inclusive", queue_weight=queue_weight)
        return replace(
            self,
            description=self.description + " (queue-aware rewards)",
            tenants=tuple(replace(t, reward=reward) for t in self.tenants),
        )

    def with_interference(
        self, model: Optional[InterferenceModel]
    ) -> "ContentionScenario":
        """A copy of this scenario under a different interference model.

        Everything else -- tenants, streams, seeds, cluster shape -- is
        unchanged, so comparing a scenario against
        ``scenario.with_interference(None)`` isolates exactly what
        co-residency slowdown costs.
        """
        return replace(self, interference=model)

    def with_placement(
        self, placement: Union[PlacementPolicy, str, None]
    ) -> "ContentionScenario":
        """A copy of this scenario under a different placement policy.

        ``placement`` may be a policy instance, a registry name
        (``"first-fit"``, ``"best-fit"``, ``"spread"``, ``"pack"``,
        ``"least-slowdown"``) or ``None`` to restore the scheduler's own
        default.  Tenants, streams, seeds and cluster shape are unchanged,
        so comparing ``scenario.with_placement("pack")`` against
        ``scenario.with_placement("least-slowdown")`` isolates exactly what
        the node-choice axis costs or saves.
        """
        if isinstance(placement, str):
            placement = build_placement(placement)
        return replace(self, placement=placement)

    def with_slowdown_feedback(self, slowdown_weight: float = 1.0) -> "ContentionScenario":
        """A copy of this scenario with slowdown-aware rewards for every tenant.

        The slowdown analogue of :meth:`with_queue_feedback`: each tenant's
        recommender trains on interference-penalised targets
        (``observed + weight * (observed - planned)``), steering the bandit
        away from arms whose allocations keep landing amid noisy
        neighbours.
        """
        reward = RewardConfig(mode="slowdown_inclusive", slowdown_weight=slowdown_weight)
        return replace(
            self,
            description=self.description + " (slowdown-aware rewards)",
            tenants=tuple(replace(t, reward=reward) for t in self.tenants),
        )


# --------------------------------------------------------------------- #
# Thin frontends over the unified engine
# --------------------------------------------------------------------- #
def run_scenario(
    scenario: ContentionScenario,
    log: Optional[EventLog] = None,
    profile: bool = False,
) -> ContentionResult:
    """Play ``scenario`` through the queued cluster path and account for queueing.

    Thin frontend over :meth:`ExperimentEngine.run`: workflows are
    recommended at their arrival instant, executed as pods on the shared
    event-driven cluster (with priority/preemption and autoscaling when
    configured), and observed by their application's recommender in
    completion-event order.  With ``profile=True`` the result additionally
    carries the simulator's kernel wall-time breakdown
    (:attr:`ContentionResult.kernel_profile`); the scenario outputs
    themselves are unaffected.
    """
    return ExperimentEngine(scenario, log=log, profile=profile).run()


# --------------------------------------------------------------------- #
# The scenario suite
# --------------------------------------------------------------------- #
def _scenario_zero_contention(seed: int = 0) -> ContentionScenario:
    catalog = ndp_catalog()
    workload = LinearRuntimeWorkload.random(
        catalog,
        n_features=2,
        seed=seed + 17,
        noise_sigma=3.0,
        feature_high=10.0,
        name="synthetic-closed-loop",
    )
    tenant = TenantSpec(
        name="solo",
        workload=workload,
        catalog=catalog,
        arrivals=ClosedLoopArrivals(concurrency=1),
        n_workflows=40,
    )
    return ContentionScenario(
        name="zero-contention",
        description=(
            "single closed-loop tenant on an effectively infinite node: "
            "no queueing, decisions identical to the synchronous loop"
        ),
        tenants=(tenant,),
        nodes=(Node("hyperscale", cpus=4096, memory_gb=32768),),
        seed=seed,
    )


def _scenario_light(seed: int = 0) -> ContentionScenario:
    catalog = ndp_catalog()
    analytics = LinearRuntimeWorkload.random(
        catalog,
        n_features=2,
        seed=seed + 5,
        noise_sigma=2.0,
        feature_high=10.0,
        name="svc-analytics",
    )
    reports = LinearRuntimeWorkload.random(
        catalog,
        n_features=1,
        seed=seed + 6,
        noise_sigma=2.0,
        feature_high=10.0,
        name="svc-reports",
    )
    tenants = (
        TenantSpec(
            name="analytics-team",
            workload=analytics,
            catalog=catalog,
            arrivals=PoissonArrivals(rate_per_second=0.02),
            n_workflows=30,
            warm_start_runs=2,
        ),
        TenantSpec(
            name="reporting-team",
            workload=reports,
            catalog=catalog,
            arrivals=PoissonArrivals(rate_per_second=0.01),
            n_workflows=20,
            warm_start_runs=2,
        ),
    )
    nodes = (
        Node("node-a", cpus=16, memory_gb=64),
        Node("node-b", cpus=16, memory_gb=64),
        Node("node-c", cpus=32, memory_gb=128),
    )
    return ContentionScenario(
        name="light",
        description=(
            "two Poisson tenants at ~10% utilisation of a 3-node cluster: "
            "queueing should be rare and small"
        ),
        tenants=tenants,
        nodes=nodes,
        seed=seed,
    )


def _scenario_saturated(seed: int = 0) -> ContentionScenario:
    catalog = matmul_catalog()
    tenant = TenantSpec(
        name="sweep-campaign",
        workload=MatrixMultiplicationWorkload(),
        catalog=catalog,
        arrivals=BurstyArrivals(burst_size=8, burst_interval_seconds=120.0),
        n_workflows=40,
        warm_start_runs=2,
        tolerance=ToleranceConfig(ratio=0.10),
    )
    return ContentionScenario(
        name="saturated",
        description=(
            "bursty matmul campaign (8 workflows / 2 min) against one 8-core "
            "node: sustained queueing, where right-sizing pays"
        ),
        tenants=(tenant,),
        nodes=(Node("worker-1", cpus=8, memory_gb=48),),
        seed=seed,
    )


def _scenario_mixed_tenants(seed: int = 0) -> ContentionScenario:
    ndp = ndp_catalog()
    matmul = matmul_catalog()
    synthetic = LinearRuntimeWorkload.random(
        matmul,
        n_features=2,
        seed=seed + 23,
        noise_sigma=5.0,
        feature_high=50.0,
        name="synthetic-etl",
    )
    tenants = (
        TenantSpec(
            name="fire-science",
            workload=BurnPro3DWorkload(),
            catalog=ndp,
            arrivals=PoissonArrivals(rate_per_second=1.0 / 2000.0),
            n_workflows=12,
            warm_start_runs=2,
        ),
        TenantSpec(
            name="linear-algebra",
            workload=MatrixMultiplicationWorkload(),
            catalog=matmul,
            arrivals=BurstyArrivals(burst_size=4, burst_interval_seconds=600.0),
            n_workflows=16,
            warm_start_runs=2,
            tolerance=ToleranceConfig(ratio=0.10),
        ),
        TenantSpec(
            name="etl-pipeline",
            workload=synthetic,
            catalog=matmul,
            arrivals=ClosedLoopArrivals(concurrency=2),
            n_workflows=20,
        ),
    )
    nodes = (
        Node("node-a", cpus=16, memory_gb=64),
        Node("node-b", cpus=8, memory_gb=32),
    )
    return ContentionScenario(
        name="mixed-tenants",
        description=(
            "BP3D + matmul + synthetic tenants (Poisson, bursty and "
            "closed-loop arrivals) sharing a 24-core cluster"
        ),
        tenants=tenants,
        nodes=nodes,
        seed=seed,
    )


def _sized_pair_catalog() -> HardwareCatalog:
    """A two-arm catalog where the faster arm hogs a whole node.

    ``lean`` (2 CPUs) runs slightly slower alone but four of them share an
    8-core node; ``beefy`` (8 CPUs) is the solo-fastest arm and monopolises
    the node, serialising every co-tenant behind it.  This is the shape in
    which queue-blind selection is most expensive.
    """
    return HardwareCatalog(
        [
            HardwareConfig("lean", cpus=2, memory_gb=8),
            HardwareConfig("beefy", cpus=8, memory_gb=32),
        ]
    )


def _sized_pair_workload(name: str, lean_runtime: float, beefy_runtime: float) -> LinearRuntimeWorkload:
    """A near-constant workload with distinct per-arm runtimes (tiny noise)."""
    return LinearRuntimeWorkload(
        feature_ranges={"size": (1.0, 2.0)},
        coefficients={
            "lean": ({"size": 1.0}, lean_runtime),
            "beefy": ({"size": 1.0}, beefy_runtime),
        },
        noise_sigma=0.5,
        name=name,
    )


def _scenario_priority_tiers(seed: int = 0) -> ContentionScenario:
    catalog = _sized_pair_catalog()
    interactive = _sized_pair_workload("svc-interactive", 58.0, 50.0)
    batch = _sized_pair_workload("svc-batch", 62.0, 55.0)
    tenants = (
        TenantSpec(
            name="interactive-tier",
            workload=interactive,
            catalog=catalog,
            arrivals=PoissonArrivals(rate_per_second=1.0 / 150.0),
            n_workflows=12,
            warm_start_runs=2,
            priority=10,
        ),
        TenantSpec(
            name="batch-tier",
            workload=batch,
            catalog=catalog,
            arrivals=BurstyArrivals(burst_size=6, burst_interval_seconds=300.0),
            n_workflows=24,
            warm_start_runs=2,
            priority=0,
        ),
    )
    return ContentionScenario(
        name="priority-tiers",
        description=(
            "a high-priority interactive tier preempting a bursty batch tier "
            "on one 8-core node: evictions are checkpoint-free requeues with "
            "wasted resource-seconds accounted"
        ),
        tenants=tenants,
        nodes=(Node("worker-1", cpus=8, memory_gb=32),),
        scheduler_factory=PriorityScheduler,
        seed=seed,
    )


def _scenario_autoscale_burst(seed: int = 0) -> ContentionScenario:
    catalog = _sized_pair_catalog()
    workload = _sized_pair_workload("svc-burst", 55.0, 50.0)
    tenant = TenantSpec(
        name="burst-campaign",
        workload=workload,
        catalog=catalog,
        arrivals=BurstyArrivals(burst_size=8, burst_interval_seconds=600.0),
        n_workflows=64,
        warm_start_runs=2,
    )
    return ContentionScenario(
        name="autoscale-burst",
        description=(
            "bursty campaign against one 8-core node plus an autoscaling "
            "pool (60 s provisioning delay): bursts queue until scale-up "
            "lands, and right-sized arms pack the elastic capacity"
        ),
        tenants=(tenant,),
        nodes=(Node("base-1", cpus=8, memory_gb=32),),
        autoscaler=AutoscalingNodePool(
            node_cpus=8,
            node_memory_gb=32,
            max_nodes=2,
            provision_delay_seconds=60.0,
            scale_down_idle_seconds=300.0,
        ),
        seed=seed,
    )


def _scenario_queue_feedback(seed: int = 0) -> ContentionScenario:
    """The autoscale-burst setup with queue-aware rewards switched on."""
    return replace(
        _scenario_autoscale_burst(seed).with_queue_feedback(queue_weight=1.0),
        name="queue-feedback",
        description=(
            "autoscale-burst with queue-inclusive rewards: observed queueing "
            "delay inflates each arm's training target, steering the bandit "
            "away from node-hogging allocations"
        ),
    )


def _scenario_interference_light(seed: int = 0) -> ContentionScenario:
    """The two-tenant light mix with a mild linear co-residency slowdown."""
    return replace(
        _scenario_light(seed),
        name="interference-light",
        description=(
            "the light two-tenant mix under LinearSlowdown(alpha=0.4): "
            "co-residency is occasional, so runs inflate rarely and mildly"
        ),
        interference=LinearSlowdown(alpha=0.4),
    )


def _scenario_interference_heavy(seed: int = 0) -> ContentionScenario:
    catalog = ndp_catalog()
    stream_a = LinearRuntimeWorkload.random(
        catalog,
        n_features=2,
        seed=seed + 31,
        noise_sigma=2.0,
        feature_high=10.0,
        name="svc-stream-a",
    )
    stream_b = LinearRuntimeWorkload.random(
        catalog,
        n_features=2,
        seed=seed + 32,
        noise_sigma=2.0,
        feature_high=10.0,
        name="svc-stream-b",
    )
    tenants = (
        TenantSpec(
            name="stream-a",
            workload=stream_a,
            catalog=catalog,
            arrivals=ClosedLoopArrivals(concurrency=3),
            n_workflows=24,
            warm_start_runs=2,
        ),
        TenantSpec(
            name="stream-b",
            workload=stream_b,
            catalog=catalog,
            arrivals=ClosedLoopArrivals(concurrency=3),
            n_workflows=24,
            warm_start_runs=2,
        ),
    )
    return ContentionScenario(
        name="interference-heavy",
        description=(
            "six concurrent workflows and two 32-core nodes under "
            "LinearSlowdown(alpha=1.5): first-fit packs everything onto "
            "shared-1 (the second node is pure placement headroom), so "
            "sustained co-residency inflates every observed runtime and "
            "the bandit learns from the inflated observations -- "
            "interference-aware placement can spread onto shared-2 instead"
        ),
        tenants=tenants,
        nodes=(
            Node("shared-1", cpus=32, memory_gb=160),
            Node("shared-2", cpus=32, memory_gb=160),
        ),
        seed=seed,
        interference=LinearSlowdown(alpha=1.5),
    )


def _scenario_noisy_neighbor(seed: int = 0) -> ContentionScenario:
    catalog = _sized_pair_catalog()
    victim = _sized_pair_workload("svc-latency", 60.0, 52.0)
    neighbor = _sized_pair_workload("svc-noisy", 64.0, 56.0)
    tenants = (
        TenantSpec(
            name="latency-sensitive",
            workload=victim,
            catalog=catalog,
            arrivals=ClosedLoopArrivals(concurrency=1),
            n_workflows=20,
            warm_start_runs=2,
        ),
        TenantSpec(
            name="noisy-neighbor",
            workload=neighbor,
            catalog=catalog,
            arrivals=ClosedLoopArrivals(concurrency=3),
            n_workflows=30,
            warm_start_runs=2,
        ),
    )
    return ContentionScenario(
        name="noisy-neighbor",
        description=(
            "a closed-loop tenant sharing one 16-core node with a "
            "3-concurrent noisy neighbour under CapacityContention "
            "(60% usable CPU when shared): the victim's observed runtimes "
            "depend on how much hardware the neighbour's bandit grabs"
        ),
        tenants=tenants,
        nodes=(Node("shared-1", cpus=16, memory_gb=64),),
        seed=seed,
        interference=CapacityContention(cpu_fraction=0.6),
    )


def _scenario_spread_vs_pack(seed: int = 0) -> ContentionScenario:
    """Four concurrent streams, two nodes, strong interference: placement
    is the whole game.  First-fit (the default) packs everything onto
    node-1; ``--placement spread`` or ``least-slowdown`` halves the
    co-residency."""
    catalog = ndp_catalog()
    stream_a = LinearRuntimeWorkload.random(
        catalog,
        n_features=2,
        seed=seed + 41,
        noise_sigma=2.0,
        feature_high=10.0,
        name="svc-pack-a",
    )
    stream_b = LinearRuntimeWorkload.random(
        catalog,
        n_features=2,
        seed=seed + 42,
        noise_sigma=2.0,
        feature_high=10.0,
        name="svc-pack-b",
    )
    tenants = (
        TenantSpec(
            name="stream-a",
            workload=stream_a,
            catalog=catalog,
            arrivals=ClosedLoopArrivals(concurrency=2),
            n_workflows=16,
            warm_start_runs=2,
        ),
        TenantSpec(
            name="stream-b",
            workload=stream_b,
            catalog=catalog,
            arrivals=ClosedLoopArrivals(concurrency=2),
            n_workflows=16,
            warm_start_runs=2,
        ),
    )
    return ContentionScenario(
        name="spread-vs-pack",
        description=(
            "four concurrent workflows and two 16-core nodes under "
            "LinearSlowdown(alpha=1.2): first-fit and pack pile everything "
            "onto node-1 while spread/least-slowdown placement splits the "
            "streams 2+2 -- run it with different --placement values to "
            "price the packing decision"
        ),
        tenants=tenants,
        nodes=(
            Node("node-1", cpus=16, memory_gb=96),
            Node("node-2", cpus=16, memory_gb=96),
        ),
        seed=seed,
        interference=LinearSlowdown(alpha=1.2),
    )


def _scenario_hetero_nodes(seed: int = 0) -> ContentionScenario:
    """Heterogeneous interference tiers: the first node in cluster order is
    the noisy one, so capacity-only placement pays the worst-case slowdown
    while interference-aware placement steers onto the quiet tier."""
    catalog = ndp_catalog()
    stream_a = LinearRuntimeWorkload.random(
        catalog,
        n_features=2,
        seed=seed + 51,
        noise_sigma=2.0,
        feature_high=10.0,
        name="svc-hetero-a",
    )
    stream_b = LinearRuntimeWorkload.random(
        catalog,
        n_features=2,
        seed=seed + 52,
        noise_sigma=2.0,
        feature_high=10.0,
        name="svc-hetero-b",
    )
    tenants = (
        TenantSpec(
            name="tier-a",
            workload=stream_a,
            catalog=catalog,
            arrivals=ClosedLoopArrivals(concurrency=2),
            n_workflows=16,
            warm_start_runs=2,
        ),
        TenantSpec(
            name="tier-b",
            workload=stream_b,
            catalog=catalog,
            arrivals=ClosedLoopArrivals(concurrency=2),
            n_workflows=16,
            warm_start_runs=2,
        ),
    )
    return ContentionScenario(
        name="hetero-nodes",
        description=(
            "two interference tiers under a class-weighted LinearSlowdown "
            "(io-noisy weighs 2.5x, numa-quiet 0.25x): first-fit packs the "
            "noisy node (it is first in cluster order), least-slowdown "
            "placement discovers the quiet tier"
        ),
        tenants=tenants,
        nodes=(
            Node("io-noisy", cpus=16, memory_gb=96, interference_class="io-noisy"),
            Node("numa-quiet", cpus=16, memory_gb=96, interference_class="numa-quiet"),
        ),
        seed=seed,
        interference=LinearSlowdown(
            alpha=1.0, class_weights={"io-noisy": 2.5, "numa-quiet": 0.25}
        ),
    )


#: Scenario registry: name -> builder(seed) -> ContentionScenario.
CONTENTION_SCENARIOS: Dict[str, Callable[[int], ContentionScenario]] = {
    "zero-contention": _scenario_zero_contention,
    "light": _scenario_light,
    "saturated": _scenario_saturated,
    "mixed-tenants": _scenario_mixed_tenants,
    "priority-tiers": _scenario_priority_tiers,
    "autoscale-burst": _scenario_autoscale_burst,
    "queue-feedback": _scenario_queue_feedback,
    "interference-light": _scenario_interference_light,
    "interference-heavy": _scenario_interference_heavy,
    "noisy-neighbor": _scenario_noisy_neighbor,
    "spread-vs-pack": _scenario_spread_vs_pack,
    "hetero-nodes": _scenario_hetero_nodes,
}


def build_scenario(name: str, seed: int = 0) -> ContentionScenario:
    """Build a registered scenario by name."""
    if name not in CONTENTION_SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(CONTENTION_SCENARIOS)}"
        )
    return CONTENTION_SCENARIOS[name](seed)


def scenario_fingerprint(name: str, placement: Optional[str] = None, seed: int = 0) -> Dict:
    """A bit-exact fingerprint of one scenario run for parity pinning.

    Plays the registered scenario ``name`` (optionally under a named
    placement policy) and returns the full summary dict (every float
    verbatim), each tenant's hardware decision stream (order-sensitive:
    any change in completion ordering changes what the bandit observes and
    therefore decides next), the accounting row count, and a SHA-256 of
    the rows' canonical JSON.  ``benchmarks/frontier_parity_reference.json``
    stores these fingerprints for every scenario under FirstFit and
    LeastSlowdown at seed 0; the frontier tests and the benchmark's output check require the current
    engine to reproduce them exactly.
    """
    import hashlib
    import json as _json

    scenario = build_scenario(name, seed=seed)
    if placement is not None:
        scenario = scenario.with_placement(placement)
    result = run_scenario(scenario)
    canonical = _json.dumps(result.rows, sort_keys=True)
    return {
        "summary": result.summary(),
        "decisions": {
            tenant: list(outcome.decisions)
            for tenant, outcome in sorted(result.tenants.items())
        },
        "n_rows": len(result.rows),
        "rows_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }
