"""The unified event-driven experiment engine.

Every evaluation loop in this repository -- the paper's replicated online
simulation (:mod:`repro.evaluation.simulation`) and the contention-aware
cluster-in-the-loop scenarios (:mod:`repro.evaluation.contention`) -- runs on
the machinery in this module.  The frontends describe *what* to evaluate
(workloads, arrival streams, cluster shape, scoring); the engine owns *how*
a run plays out:

* **one round/outcome ledger** -- :class:`ScenarioAccountant` turns every
  completion into a :class:`~repro.core.rewards.RoundOutcome`, a per-tenant
  :class:`~repro.core.rewards.RegretLedger` entry and one accounting row;
* **one completion → observe path** -- each tenant's
  :class:`~repro.core.BanditWare` gets one
  :meth:`~repro.core.BanditWare.observe_batch` call per event drain, rows in
  completion-event order, which checks every row once before that tenant's
  models change (queue delays and slowdowns ride along for the shaped
  reward modes);
* **one seeding discipline** -- replications derive from a
  :class:`~repro.utils.rng.SeedSequencePool` via
  :func:`replication_sequences`; tenant feature/arrival/warm-start streams
  derive from :func:`stream_rng`, so every consumer of a scenario (the
  engine, and the contention-free reference loop the parity tests replay)
  draws the same streams;
* **the event loop** -- :class:`ExperimentEngine` interleaves external
  arrivals with the cluster's own events (pod lifecycle, autoscaler
  provisioning and drains) in global time order, with cluster events winning
  ties so an arrival at time *t* sees every completion whose event fires at
  *t*.

The engine also hosts the replication runners: the online-loop
replications behind :class:`~repro.evaluation.simulation.OnlineSimulation`
-- played in lockstep blocks (:func:`run_online_block`) for the paper's
ε-greedy/OLS configuration and one at a time (:func:`run_online_replication`)
otherwise, serially or one block per pool worker -- and a process-pool sweep
over pickled contention scenarios (:func:`run_scenario_sweep`).
"""

from __future__ import annotations

import heapq
import itertools
import pickle
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.simulator import ClusterSimulator, CompletedRun
from repro.core.banditware import BanditWare, Recommendation
from repro.core.models.linear import solve_least_squares
from repro.core.rewards import RegretLedger, RoundOutcome
from repro.core.selection import TolerantSelector
from repro.hardware import HardwareCatalog, node_occupancy_cost, occupancy_cost
from repro.utils.logging import EventLog
from repro.utils.numeric import ordered_sum
from repro.utils.rng import SeedSequencePool
from repro.utils.validation import check_count
from repro.workloads import ClosedLoopArrivals, TraceGenerator
from repro.workloads.base import WorkloadModel

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.evaluation.contention import ContentionScenario, TenantSpec
    from repro.evaluation.simulation import OnlineSimulation, SimulationConfig

__all__ = [
    "TenantOutcome",
    "ContentionResult",
    "ScenarioAccountant",
    "ExperimentEngine",
    "replication_sequences",
    "stream_rng",
    "run_online_replication",
    "run_online_block",
    "run_replications",
    "run_scenario_sweep",
    "ReplicationSummary",
    "run_scenario_replications",
]


# --------------------------------------------------------------------- #
# The seeding discipline
# --------------------------------------------------------------------- #
#: Stable stream labels: every independent random stream an experiment uses
#: is derived from (scenario seed, tenant index, purpose), so frontends can
#: never collide or drift apart.
_STREAM_PURPOSES = {"features": 101, "arrivals": 202, "warm_start": 303}


def stream_rng(seed: int, index: int, purpose: str) -> np.random.Generator:
    """The random stream for one (seed, tenant, purpose) triple.

    All scenario-level randomness -- feature sampling, arrival times,
    warm-start traces -- flows through here so everything that replays a
    scenario draws byte-identical streams.
    """
    if purpose not in _STREAM_PURPOSES:
        raise KeyError(
            f"unknown stream purpose {purpose!r}; known: {sorted(_STREAM_PURPOSES)}"
        )
    return np.random.default_rng([seed, index, _STREAM_PURPOSES[purpose]])


def replication_sequences(seed: int, n: int) -> List[np.random.SeedSequence]:
    """Independent child seed sequences for ``n`` replications of one run."""
    pool = SeedSequencePool(seed)
    return [pool.sequence(i) for i in range(n)]


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #
@dataclass
class TenantOutcome:
    """Per-tenant ledger and decision stream of one scenario run."""

    tenant: str
    application: str
    ledger: RegretLedger
    #: Hardware chosen per workflow, in submission order.
    decisions: List[str] = field(default_factory=list)
    #: Observed runtime per workflow, in completion (event) order.
    runtimes: List[float] = field(default_factory=list)

    def summary(self) -> Dict[str, float]:
        return self.ledger.summary()


@dataclass
class ContentionResult:
    """Everything observed while a scenario played out on the shared cluster."""

    scenario_name: str
    description: str
    makespan_seconds: float
    total_occupancy_cost: float
    #: One row per completed workflow, in completion (event) order.
    rows: List[Dict[str, object]]
    tenants: Dict[str, TenantOutcome]
    #: Resource-seconds discarded by preemptions (checkpoint-free restarts).
    wasted_occupancy_cost: float = 0.0
    #: Resource-seconds of autoscaled node lifetime (provision to drain).
    node_pool_cost: float = 0.0
    #: Autoscaling actions, in time order (empty without an autoscaler).
    scale_events: List[object] = field(default_factory=list)
    #: Registry name of the placement policy the run's scheduler used.
    placement: str = "first-fit"
    #: Reward mode per tenant (``"runtime"``, ``"queue_inclusive"`` or
    #: ``"slowdown_inclusive"``), for the report's reward-shaping line.
    reward_modes: Dict[str, str] = field(default_factory=dict)
    #: Kernel wall-time accounting (re-integration / scheduling / placement
    #: seconds and event counters), populated only when the engine ran with
    #: ``profile=True``.  Never part of :meth:`summary` -- profiling must not
    #: perturb parity-pinned outputs.
    kernel_profile: Optional[Dict[str, float]] = None

    def queue_delays(self) -> np.ndarray:
        return np.asarray([float(row["queue_seconds"]) for row in self.rows])

    def summary(self) -> Dict[str, float]:
        """Headline queue-aware numbers for reports and tests."""
        delays = self.queue_delays()
        ledgers = [outcome.ledger for outcome in self.tenants.values()]
        total_rounds = sum(len(ledger) for ledger in ledgers)
        correct = sum(
            sum(1 for r in ledger.rounds if r.correct) for ledger in ledgers
        )
        regret = ordered_sum(
            float(ledger.cumulative_runtime_regret()[-1]) for ledger in ledgers if len(ledger)
        )
        queue_regret = ordered_sum(
            float(ledger.cumulative_queue_inclusive_regret()[-1])
            for ledger in ledgers
            if len(ledger)
        )
        interference_regret = ordered_sum(
            float(ledger.cumulative_interference_inclusive_regret()[-1])
            for ledger in ledgers
            if len(ledger)
        )
        interference_seconds = ordered_sum(
            ledger.total_interference_seconds() for ledger in ledgers
        )
        slowdowns = [float(row.get("slowdown", 1.0)) for row in self.rows]
        preemptions = sum(int(row.get("preemptions", 0)) for row in self.rows)
        return {
            "workflows": float(total_rounds),
            "tenants": float(len(self.tenants)),
            "makespan_seconds": float(self.makespan_seconds),
            "total_queue_seconds": float(delays.sum()) if delays.size else 0.0,
            "mean_queue_seconds": float(delays.mean()) if delays.size else 0.0,
            "p95_queue_seconds": float(np.percentile(delays, 95)) if delays.size else 0.0,
            "max_queue_seconds": float(delays.max()) if delays.size else 0.0,
            "occupancy_cost": float(self.total_occupancy_cost),
            "wasted_occupancy_cost": float(self.wasted_occupancy_cost),
            "node_pool_cost": float(self.node_pool_cost),
            "preemptions": float(preemptions),
            "cumulative_regret": regret,
            "queue_inclusive_regret": queue_regret,
            "interference_inclusive_regret": interference_regret,
            "interference_seconds": float(interference_seconds),
            "mean_slowdown": float(np.mean(slowdowns)) if slowdowns else 1.0,
            "max_slowdown": float(np.max(slowdowns)) if slowdowns else 1.0,
            "accuracy": (correct / total_rounds) if total_rounds else 0.0,
        }


# --------------------------------------------------------------------- #
# Shared construction (the recommenders and workflow streams of a scenario;
# the zero-contention parity tests build their reference loop from these)
# --------------------------------------------------------------------- #
def tenant_feature_streams(scenario: "ContentionScenario") -> List[List[Dict[str, float]]]:
    """The workflow feature stream of every tenant, in tenant order."""
    streams: List[List[Dict[str, float]]] = []
    for index, tenant in enumerate(scenario.tenants):
        if tenant.features is not None:
            streams.append([dict(f) for f in tenant.features])
            continue
        rng = stream_rng(scenario.seed, index, "features")
        streams.append(
            [tenant.workload.sample_features(rng) for _ in range(tenant.n_workflows)]
        )
    return streams


def build_recommenders(scenario: "ContentionScenario") -> List[BanditWare]:
    """One warm-started recommender per tenant, in tenant order."""
    recommenders: List[BanditWare] = []
    for index, tenant in enumerate(scenario.tenants):
        recommender = BanditWare(
            catalog=tenant.catalog,
            feature_names=tenant.workload.feature_names,
            tolerance=tenant.tolerance,
            seed=scenario.seed,
            track_history=False,
            reward=tenant.reward,
        )
        if tenant.warm_start_runs > 0:
            generator = TraceGenerator(
                tenant.workload,
                tenant.catalog,
                seed=stream_rng(scenario.seed, index, "warm_start"),
            )
            recommender.warm_start(generator.generate_frame(tenant.warm_start_runs, grid=True))
        recommenders.append(recommender)
    return recommenders


def oracle_runtimes(
    workload: WorkloadModel,
    catalog: HardwareCatalog,
    features: Dict[str, float],
) -> Tuple[str, float, Dict[str, float]]:
    """Oracle-best hardware, its expected runtime, and the full runtime table."""
    table = {hw.name: workload.expected_runtime(features, hw) for hw in catalog}
    best = min(table, key=lambda name: (table[name], name))
    return best, table[best], table


# --------------------------------------------------------------------- #
# The round/outcome ledger
# --------------------------------------------------------------------- #
class _TenantState:
    """Mutable per-tenant bookkeeping while a scenario plays."""

    def __init__(
        self,
        index: int,
        spec: "TenantSpec",
        features: List[Dict[str, float]],
        recommender: BanditWare,
    ):
        self.index = index
        self.spec = spec
        self.features = features
        self.recommender = recommender
        self.next_index = 0  # next workflow to submit
        #: Workflows whose arrival is already on the heap or submitted.  The
        #: closed-loop refill gates on this (not on ``next_index``): two
        #: completions handled in one event drain must not both enqueue the
        #: single remaining workflow.
        self.scheduled = 0
        self.outcome = TenantOutcome(
            tenant=spec.name,
            application=spec.workload.name,
            ledger=RegretLedger(),
        )

    @property
    def fully_scheduled(self) -> bool:
        return self.scheduled >= len(self.features)

    def next_features(self) -> Dict[str, float]:
        features = self.features[self.next_index]
        self.next_index += 1
        return features


@dataclass(frozen=True)
class _InFlight:
    state: _TenantState
    recommendation: Recommendation
    features: Dict[str, float]


class ScenarioAccountant:
    """The round/outcome ledger of a scenario run.

    Turns each completed run into a :class:`RoundOutcome` on the tenant's
    regret ledger plus one accounting row, and integrates occupancy cost --
    useful and (for preempted pods) wasted resource-seconds.
    """

    def __init__(self, catalog: HardwareCatalog):
        self.catalog = catalog
        self.rows: List[Dict[str, object]] = []
        self.total_occupancy = 0.0
        self.wasted_occupancy = 0.0

    def record(
        self,
        state: _TenantState,
        features: Dict[str, float],
        run: CompletedRun,
        explored: bool,
        finish_time: float,
    ) -> RoundOutcome:
        spec = state.spec
        best_name, best_runtime, table = oracle_runtimes(
            spec.workload, spec.catalog, features
        )
        outcome = RoundOutcome(
            round_index=len(state.outcome.ledger),
            chosen_hardware=run.record.hardware,
            best_hardware=best_name,
            observed_runtime=run.record.runtime_seconds,
            best_expected_runtime=best_runtime,
            expected_runtime_on_chosen=table[run.record.hardware],
            explored=explored,
            queue_seconds=run.queue_seconds,
            planned_runtime=run.planned_runtime_seconds,
        )
        state.outcome.ledger.record(outcome)
        state.outcome.runtimes.append(run.record.runtime_seconds)
        config = self.catalog[run.record.hardware]
        occupancy = occupancy_cost(config, run.record.runtime_seconds)
        wasted = occupancy_cost(config, run.wasted_runtime_seconds)
        self.total_occupancy += occupancy
        self.wasted_occupancy += wasted
        self.rows.append(
            {
                "tenant": spec.name,
                "application": run.record.application,
                "round": outcome.round_index,
                "finish_time": finish_time,
                "hardware": run.record.hardware,
                "node": run.node,
                "priority": spec.priority,
                "queue_seconds": run.queue_seconds,
                "runtime_seconds": run.record.runtime_seconds,
                "planned_seconds": (
                    run.planned_runtime_seconds
                    if run.planned_runtime_seconds is not None
                    else run.record.runtime_seconds
                ),
                "slowdown": run.slowdown,
                "occupancy_cost": occupancy,
                "preemptions": run.preemptions,
                "wasted_seconds": run.wasted_runtime_seconds,
                "wasted_occupancy_cost": wasted,
                "explored": outcome.explored,
                "correct": outcome.correct,
                "runtime_regret": outcome.runtime_regret,
                "queue_inclusive_regret": outcome.queue_inclusive_regret,
                "interference_seconds": outcome.interference_seconds,
            }
        )
        return outcome


# --------------------------------------------------------------------- #
# The event-driven engine
# --------------------------------------------------------------------- #
class ExperimentEngine:
    """Drive one contention scenario through the shared event-driven cluster.

    Workflows are recommended at their arrival instant (seeing exactly the
    completions whose events precede that instant), executed as pods on the
    shared cluster -- with priority classes, preemption and autoscaling when
    the scenario configures them -- and observed by their application's
    recommender in completion-event order.
    """

    def __init__(
        self,
        scenario: "ContentionScenario",
        log: Optional[EventLog] = None,
        profile: bool = False,
    ):
        self.scenario = scenario
        self.log = log
        self.profile = profile
        self.catalog = scenario.union_catalog()

    # ------------------------------------------------------------------ #
    def _build_cluster(self, workload: WorkloadModel) -> ClusterSimulator:
        scheduler = self.scenario.scheduler_factory()
        if self.scenario.placement is not None:
            # The placement axis is orthogonal to the queue discipline: the
            # scenario's policy is injected into whatever scheduler the
            # factory built (FIFO, backfill, priority, ...).
            scheduler.placement = self.scenario.placement
        return ClusterSimulator(
            workload=workload,
            catalog=self.catalog,
            nodes=self.scenario.fresh_nodes(),
            scheduler=scheduler,
            seed=self.scenario.seed,
            log=self.log,
            autoscaler=self.scenario.autoscaler,
            interference=self.scenario.interference,
        )

    def _reward_modes(self) -> Dict[str, str]:
        return {
            tenant.name: (tenant.reward.mode if tenant.reward is not None else "runtime")
            for tenant in self.scenario.tenants
        }

    def _node_pool_cost(self, cluster: ClusterSimulator) -> float:
        pool = self.scenario.autoscaler
        if pool is None:
            return 0.0
        return ordered_sum(
            node_occupancy_cost(
                pool.node_cpus, pool.node_memory_gb, end - start, pool.node_gpus
            )
            for _, start, end in cluster.pool_node_lifetimes()
        )

    # ------------------------------------------------------------------ #
    def run(self) -> ContentionResult:
        """Play the scenario through the queued cluster path."""
        scenario = self.scenario
        cluster = self._build_cluster(scenario.tenants[0].workload)
        kernel_profile = cluster.enable_profiling() if self.profile else None
        accountant = ScenarioAccountant(self.catalog)
        recommenders = build_recommenders(scenario)
        states = [
            _TenantState(index, spec, stream, recommenders[index])
            for index, (spec, stream) in enumerate(
                zip(scenario.tenants, tenant_feature_streams(scenario))
            )
        ]

        # Arrival heap: (time, sequence, tenant_index).  Open-loop tenants get
        # a precomputed schedule; closed-loop tenants start `concurrency`
        # workflows and enqueue the next one when a previous one completes.
        arrival_seq = itertools.count()
        arrivals: List[Tuple[float, int, int]] = []
        for index, state in enumerate(states):
            process = state.spec.arrivals
            if isinstance(process, ClosedLoopArrivals):
                initial = min(process.concurrency, state.spec.n_workflows)
                for _ in range(initial):
                    heapq.heappush(arrivals, (process.start_time, next(arrival_seq), index))
                state.scheduled = initial
            else:
                rng = stream_rng(scenario.seed, index, "arrivals")
                for time in process.arrival_times(state.spec.n_workflows, rng):
                    heapq.heappush(arrivals, (float(time), next(arrival_seq), index))
                state.scheduled = state.spec.n_workflows

        in_flight: Dict[str, _InFlight] = {}

        def submit(state: _TenantState, at_time: float) -> None:
            features = state.next_features()
            recommendation = state.recommender.recommend(features)
            state.outcome.decisions.append(recommendation.hardware.name)
            pod = cluster.submit(
                features,
                recommendation.hardware,
                at_time=at_time,
                workload=state.spec.workload,
                priority=state.spec.priority,
            )
            in_flight[pod.name] = _InFlight(state, recommendation, features)

        def handle_completions(runs: Sequence[CompletedRun]) -> None:
            # Pop the whole drain first: a pod reported twice raises before
            # any recommender changes.  Then one observe_batch per tenant,
            # rows in completion-event order.  The runtime is the *observed*
            # (interference-inflated) one -- the bandit learns from what
            # actually happened on the shared cluster, exactly as the paper's
            # loop learns from measured runtimes.  Queue delays and the
            # observed/planned slowdown ride along for the shaped reward modes.
            entries = [in_flight.pop(run.pod_name) for run in runs]
            by_tenant: Dict[_TenantState, List[int]] = {}
            for row, entry in enumerate(entries):
                by_tenant.setdefault(entry.state, []).append(row)
            for state, rows in by_tenant.items():
                state.recommender.observe_batch(
                    [entries[row].features for row in rows],
                    [entries[row].recommendation.hardware for row in rows],
                    [runs[row].record.runtime_seconds for row in rows],
                    queues_seconds=[runs[row].queue_seconds for row in rows],
                    slowdowns=[runs[row].slowdown for row in rows],
                )
            for entry, run in zip(entries, runs):
                state = entry.state
                accountant.record(
                    state,
                    entry.features,
                    run,
                    explored=entry.recommendation.explored,
                    finish_time=run.finish_time,
                )
                process = state.spec.arrivals
                if isinstance(process, ClosedLoopArrivals) and not state.fully_scheduled:
                    next_time = run.finish_time + process.think_time_seconds
                    heapq.heappush(arrivals, (next_time, next(arrival_seq), state.index))
                    state.scheduled += 1

        # Event loop: interleave external arrivals with the cluster's own
        # events in global time order.  Cluster events win ties so an arrival
        # at time t sees every completion whose event fires at t.
        # ``peek_next_event_time`` is frontier-aware: it reports the next
        # *live* event, never a superseded (cancelled) node frontier, so the
        # engine steps once per genuine cluster instant instead of waking at
        # timestamps where the simulator would discard a stale entry and do
        # nothing.
        while arrivals or cluster.has_work:
            next_arrival = arrivals[0][0] if arrivals else None
            next_event = cluster.peek_next_event_time()
            if next_arrival is None or (next_event is not None and next_event <= next_arrival):
                handle_completions(cluster.run_until(next_event))
            else:
                time, _, tenant_index = heapq.heappop(arrivals)
                submit(states[tenant_index], at_time=time)

        if in_flight:
            # Pods stuck pending with no events left: surfaces the simulator's
            # diagnosis (infeasible requests, head-of-line deadlock).
            cluster.run_until_idle()

        # The makespan is when the last workflow finished; the cluster clock
        # may sit later (e.g. on an autoscaler drain check).
        makespan = (
            float(accountant.rows[-1]["finish_time"]) if accountant.rows else cluster.now
        )
        return ContentionResult(
            scenario_name=scenario.name,
            description=scenario.description,
            makespan_seconds=makespan,
            total_occupancy_cost=accountant.total_occupancy,
            rows=accountant.rows,
            tenants={state.spec.name: state.outcome for state in states},
            wasted_occupancy_cost=accountant.wasted_occupancy,
            node_pool_cost=self._node_pool_cost(cluster),
            scale_events=cluster.scale_events,
            placement=cluster.scheduler.placement.name,
            reward_modes=self._reward_modes(),
            kernel_profile=kernel_profile.as_dict() if kernel_profile else None,
        )


# --------------------------------------------------------------------- #
# Replication runners
# --------------------------------------------------------------------- #
def run_online_replication(
    simulation: "OnlineSimulation", seed_seq: np.random.SeedSequence
) -> Tuple[np.ndarray, np.ndarray]:
    """Play one replication of the online loop; return per-round ``(rmse, accuracy)``.

    This is the engine's sequential round driver behind
    :class:`~repro.evaluation.simulation.OnlineSimulation`: each round a
    workflow arrives, the bandit recommends, the (noisy) runtime is observed
    through the replay fast path or the workload model, and the observation
    feeds back through the recommender.  Scoring is deferred: the per-round
    coefficient matrices are recorded (only the observed arm's row changes
    per round) and the whole series is scored in one batched pass at the end.
    """
    cfg = simulation.config
    rng = np.random.default_rng(seed_seq)
    bandit = BanditWare(
        catalog=simulation.catalog,
        feature_names=simulation.feature_names,
        policy=cfg.make_policy(),
        arm_model_factory=cfg.make_arm_model_factory(),
        seed=rng,
        track_history=False,
    )
    models = bandit.models
    n_arms = len(simulation.catalog)
    n_pool = len(simulation._workflow_pool)
    sample_from_frame = simulation.sample_from_frame
    env_fast = simulation._env_fast
    truth = simulation._truth
    pool_sigma = simulation._pool_sigma
    pool_contexts = simulation._pool_contexts
    recommend = bandit.recommend_vector
    observe = bandit.observe_vector
    W_hist = np.zeros((cfg.n_rounds, n_arms, len(simulation.feature_names)))
    b_hist = np.zeros((cfg.n_rounds, n_arms))
    for round_idx in range(cfg.n_rounds):
        if sample_from_frame:
            pool_idx = int(rng.integers(n_pool))
            context = pool_contexts[pool_idx]
        else:
            features = simulation.workload.sample_features(rng)
            context = np.asarray(
                [
                    (float(features[name]) - simulation._feature_mean[i])
                    / simulation._feature_std[i]
                    for i, name in enumerate(simulation.feature_names)
                ]
            )
        recommendation = recommend(context)
        arm = recommendation.decision.arm_index
        if env_fast:
            # Inlined WorkloadModel.observed_runtime on precomputed
            # expectation/noise matrices (identical draws and clamping).
            mean = truth[pool_idx, arm]
            noise = pool_sigma[pool_idx, arm]
            value = float(rng.normal(mean, noise)) if noise > 0 else mean
            runtime = max(value, 0.01 * mean, 0.0)
        else:
            if sample_from_frame:
                features = simulation._workflow_pool[pool_idx]
            runtime = simulation.workload.observed_runtime(
                features, recommendation.hardware, rng
            )
        # Contexts come from the validated evaluation arrays (or the
        # workload sampler) and runtimes from observed_runtime's clamp,
        # so the engine skips per-round re-validation.
        observe(context, arm, float(runtime), validate=False)
        if round_idx:
            W_hist[round_idx] = W_hist[round_idx - 1]
            b_hist[round_idx] = b_hist[round_idx - 1]
        W_hist[round_idx, arm] = models[arm].coefficients
        b_hist[round_idx, arm] = models[arm].intercept
    return simulation._score_series(W_hist, b_hist)


def _is_lockstep(config: "SimulationConfig") -> bool:
    """Whether :func:`run_online_block` can play replications of ``config``."""
    return config.policy == "epsilon_greedy" and config.arm_model == "ols"


def run_online_block(
    simulation: "OnlineSimulation", sequences: Sequence[np.random.SeedSequence]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Play a block of replications in lockstep; return each one's ``(rmse, accuracy)``.

    Bit-identical to ``[run_online_replication(simulation, s) for s in
    sequences]`` for the paper's configuration (decaying ε-greedy policy,
    per-arm OLS models), and only valid for it.  Rounds advance together
    across the block, with every replication's per-arm normal equations and
    coefficients held in stacked arrays:

    * **stacked, once per round:** the exploit estimates, tolerant selection
      (argmin, clamped limit, efficiency-first candidate), the rank-1
      ``XᵀX``/``Xᵀy`` updates and the history bookkeeping.  ε needs no
      per-replication state: the seed-every-arm rounds are the first ``K``
      for every replication and every later round decays it.
    * **per replication:** its own Generator's draws, in the reference order
      (pool row or sampled features → ε draw → explore arm → runtime
      noise); the LAPACK refit of the arm it updated; and its
      ``_score_series`` call.  Batched solvers take other LAPACK paths and
      OpenBLAS GEMM bits depend on the call shape, so stacking either would
      change the results.

    The stored state is one design row, target, arm index and refit
    solution per replication per round; each replication's ``(T, K, m)``
    coefficient history is rebuilt from them just before it is scored.
    """
    cfg = simulation.config
    if not _is_lockstep(cfg):
        raise ValueError(
            "run_online_block plays the epsilon_greedy policy with ols arm models, "
            f"not policy={cfg.policy!r} with arm_model={cfg.arm_model!r}"
        )
    catalog = simulation.catalog
    workload = simulation.workload
    feature_names = simulation.feature_names
    n_reps, n_rounds = len(sequences), cfg.n_rounds
    n_arms, n_features = len(catalog), len(feature_names)
    n_params = n_features + 1
    n_pool = len(simulation._workflow_pool)
    shift, scale = simulation._feature_mean, simulation._feature_std
    rngs = [np.random.default_rng(seq) for seq in sequences]
    tolerance = cfg.tolerance
    order = TolerantSelector(tolerance).efficiency_order(catalog)

    gram = np.zeros((n_reps, n_arms, n_params, n_params))
    xty = np.zeros((n_reps, n_arms, n_params))
    counts = np.zeros((n_reps, n_arms), dtype=np.intp)
    W = np.zeros((n_reps, n_arms, n_features))
    b = np.zeros((n_reps, n_arms))
    design = np.empty((n_reps, n_rounds, n_params))
    design[:, :, n_features] = 1.0
    targets = np.empty((n_reps, n_rounds))
    arms = np.empty((n_reps, n_rounds), dtype=np.intp)
    solutions = np.empty((n_reps, n_rounds, n_params))
    reps = np.arange(n_reps)
    epsilon = cfg.epsilon0

    def arm_rows(r: int, arm: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        mask = arms[r, :stop] == arm
        return design[r, :stop][mask], targets[r, :stop][mask]

    for t in range(n_rounds):
        # Each phase draws once from every replication's stream, so every
        # stream sees the reference order: pool row (or sampled features),
        # ε draw, explore arm, runtime noise.
        if simulation.sample_from_frame:
            pool_idx = np.array([rng.integers(n_pool) for rng in rngs], dtype=np.intp)
            contexts = simulation._pool_contexts[pool_idx]
        else:
            features = [workload.sample_features(rng) for rng in rngs]
            contexts = np.array(
                [
                    [(float(f[name]) - shift[i]) / scale[i] for i, name in enumerate(feature_names)]
                    for f in features
                ]
            )
        if t < n_arms:
            # Every arm is seeded once, in arm order, before any ε draw.
            chosen = np.full(n_reps, t, dtype=np.intp)
        else:
            explored = np.array([rng.random() < epsilon for rng in rngs])
            # A stacked (1×m)@(m×1) product reproduces each model's `w @ x`
            # bit for bit (einsum and gemv do not).
            estimates = (W[:, :, None, :] @ contexts[:, None, :, None])[:, :, 0, 0] + b
            if not np.isfinite(estimates.sum()) and not np.isfinite(estimates[~explored]).all():
                raise ValueError("runtime estimates must be finite")
            limit = tolerance.limit(estimates.min(axis=1))
            candidates = (estimates <= limit[:, None])[:, order]
            chosen = order[candidates.argmax(axis=1)]
            for r in np.flatnonzero(explored).tolist():
                chosen[r] = rngs[r].integers(n_arms)
            epsilon *= cfg.decay

        if simulation._env_fast:
            means = simulation._truth[pool_idx, chosen]
            sigmas = simulation._pool_sigma[pool_idx, chosen]
            draws = [
                rng.normal(mean, sigma) if sigma > 0 else mean
                for rng, mean, sigma in zip(rngs, means.tolist(), sigmas.tolist())
            ]
            runtimes = np.maximum(np.maximum(draws, 0.01 * means), 0.0)
        else:
            if simulation.sample_from_frame:
                features = [simulation._workflow_pool[i] for i in pool_idx.tolist()]
            runtimes = np.array(
                [
                    workload.observed_runtime(f, catalog[arm], rng)
                    for f, arm, rng in zip(features, chosen.tolist(), rngs)
                ],
                dtype=float,
            )

        rows = design[:, t]
        rows[:, :n_features] = contexts
        targets[:, t] = runtimes
        arms[:, t] = chosen
        gram[reps, chosen] += rows[:, :, None] * rows[:, None, :]
        xty[reps, chosen] += rows * runtimes[:, None]
        counts[reps, chosen] += 1
        fits = [
            solve_least_squares(
                gram[r, arm], xty[r, arm], n_rows, lambda: arm_rows(r, arm, t + 1)
            )
            for r, arm, n_rows in zip(
                range(n_reps), chosen.tolist(), counts[reps, chosen].tolist()
            )
        ]
        solutions[:, t] = fits
        W[reps, chosen] = solutions[:, t, :n_features]
        b[reps, chosen] = solutions[:, t, n_features]

    del gram, xty, design, targets
    # last[t, k]: the latest round <= t that refit arm k, or -1 (the zero row
    # of `padded`) while the arm is still unfitted.
    steps = np.arange(n_rounds)[:, None]
    padded = np.zeros((n_rounds + 1, n_params))
    outcomes = []
    for r in range(n_reps):
        last = np.where(arms[r][:, None] == np.arange(n_arms), steps, -1)
        np.maximum.accumulate(last, axis=0, out=last)
        padded[:n_rounds] = solutions[r]
        outcomes.append(
            simulation._score_series(padded[last, :n_features], padded[last, n_features])
        )
    return outcomes


def _play_replications(
    simulation: "OnlineSimulation", sequences: Sequence[np.random.SeedSequence]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Play replications in lockstep when the configuration allows, else one by one."""
    if _is_lockstep(simulation.config):
        return run_online_block(simulation, sequences)
    return [run_online_replication(simulation, seq) for seq in sequences]


# Process-pool plumbing.  The simulation object is shipped to each worker
# once (via the initializer) instead of once per block.
_WORKER_SIMULATION: Optional["OnlineSimulation"] = None


def _replication_worker_init(simulation: "OnlineSimulation") -> None:
    global _WORKER_SIMULATION
    _WORKER_SIMULATION = simulation


def _replication_worker_run(
    block: Sequence[np.random.SeedSequence],
) -> List[Tuple[np.ndarray, np.ndarray]]:
    assert _WORKER_SIMULATION is not None, "worker used before initialisation"
    return _play_replications(_WORKER_SIMULATION, block)


def run_replications(
    simulation: "OnlineSimulation",
    sequences: Optional[Sequence[np.random.SeedSequence]] = None,
    n_workers: Optional[int] = None,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Run a simulation's replications (serial or process pool), in order.

    The paper's ε-greedy/OLS configuration plays in lockstep
    (:func:`run_online_block`); every other policy × model pair plays one
    replication at a time (:func:`run_online_replication`).  With
    ``n_workers > 1`` each worker plays one contiguous block of
    ``sequences``.  Results are ordered like ``sequences`` and each
    replication owns an independent child seed, so the parallel path is
    bit-identical to the serial one regardless of scheduling.
    """
    cfg = simulation.config
    if sequences is None:
        sequences = replication_sequences(cfg.seed, cfg.n_simulations)
    sequences = list(sequences)
    if n_workers is None:
        n_workers = cfg.n_workers
    n_workers = min(n_workers, len(sequences))
    if n_workers <= 1:
        return _play_replications(simulation, sequences)
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    bounds = [len(sequences) * i // n_workers for i in range(n_workers + 1)]
    blocks = [sequences[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    try:
        with ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_replication_worker_init,
            initargs=(simulation,),
        ) as executor:
            parts = list(executor.map(_replication_worker_run, blocks))
    except (OSError, PermissionError, ImportError, BrokenExecutor,
            pickle.PicklingError, AttributeError, TypeError):
        # Process pools can be unavailable (restricted sandboxes, exotic
        # platforms) or the simulation unpicklable (custom workloads with
        # closures on spawn-start platforms); threads preserve correctness,
        # if not parallel speed.  A genuine bug inside the replication loop
        # re-raises from the thread fallback.
        with ThreadPoolExecutor(max_workers=n_workers) as executor:
            parts = list(
                executor.map(lambda block: _play_replications(simulation, block), blocks)
            )
    return [outcome for part in parts for outcome in part]


# --------------------------------------------------------------------- #
# Scenario sweeps
# --------------------------------------------------------------------- #
def _sweep_worker(scenario: "ContentionScenario") -> ContentionResult:
    return ExperimentEngine(scenario).run()


def run_scenario_sweep(
    scenarios: Sequence["ContentionScenario"], n_workers: int = 1
) -> List[ContentionResult]:
    """Run many scenarios, optionally fanning out over a process pool.

    Scenario runs are independent, so the pool is embarrassingly parallel;
    results come back in input order either way.  Scenarios (and their
    workloads, arrival processes and schedulers) are picklable by
    construction, which the contention test-suite pins.
    """
    check_count(n_workers, "n_workers")
    n_workers = min(n_workers, len(scenarios)) if scenarios else 1
    if n_workers <= 1:
        return [_sweep_worker(scenario) for scenario in scenarios]
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=n_workers) as executor:
            return list(executor.map(_sweep_worker, scenarios))
    except (OSError, PermissionError, ImportError, BrokenExecutor,
            pickle.PicklingError, AttributeError, TypeError):
        # Same fallback contract as run_replications.
        with ThreadPoolExecutor(max_workers=n_workers) as executor:
            return list(executor.map(_sweep_worker, scenarios))


# --------------------------------------------------------------------- #
# Scenario replications with confidence bands
# --------------------------------------------------------------------- #
@dataclass
class ReplicationSummary:
    """Per-round mean ± spread curves across replications of one scenario.

    A single scenario run is one sample of every headline number; the
    replication runner plays the same scenario under ``n`` consecutive
    seeds and aggregates the per-completion curves, so reports can show
    confidence bands instead of point estimates.  Completion index is the
    round axis: every replication completes the same number of workflows
    (each tenant's ``n_workflows`` is part of the scenario), so the curve
    matrices are rectangular by construction.

    Attributes
    ----------
    scenario_name:
        The replicated scenario.
    seeds:
        The seed of each replication, in result order.
    results:
        The full per-replication :class:`ContentionResult` objects.
    regret_curves, queue_regret_curves, interference_regret_curves:
        ``(n_replications, n_rounds)`` cumulative regret in completion
        order (runtime, queue-inclusive and interference-inclusive).
    slowdown_curves:
        ``(n_replications, n_rounds)`` running mean slowdown in completion
        order.
    """

    scenario_name: str
    seeds: List[int]
    results: List[ContentionResult]
    regret_curves: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    queue_regret_curves: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    interference_regret_curves: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    slowdown_curves: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    @property
    def n_replications(self) -> int:
        return len(self.results)

    @property
    def n_rounds(self) -> int:
        return int(self.regret_curves.shape[1]) if self.regret_curves.size else 0

    def band(self, which: str = "queue_regret", z: float = 1.96) -> Dict[str, np.ndarray]:
        """Per-round ``mean``/``std``/``lo``/``hi`` arrays for one curve family.

        ``which`` is ``"regret"``, ``"queue_regret"``,
        ``"interference_regret"`` or ``"slowdown"``; ``lo``/``hi`` is the
        normal-approximation confidence band ``mean ± z * std / sqrt(n)``
        (``z=1.96`` for 95%).
        """
        curves = {
            "regret": self.regret_curves,
            "queue_regret": self.queue_regret_curves,
            "interference_regret": self.interference_regret_curves,
            "slowdown": self.slowdown_curves,
        }
        if which not in curves:
            raise KeyError(f"unknown curve {which!r}; known: {sorted(curves)}")
        matrix = curves[which]
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0, ddof=1) if matrix.shape[0] > 1 else np.zeros_like(mean)
        half = z * std / np.sqrt(matrix.shape[0]) if matrix.shape[0] else std
        return {"mean": mean, "std": std, "lo": mean - half, "hi": mean + half}

    def summary(self) -> Dict[str, Tuple[float, float]]:
        """Headline scalars as ``(mean, std)`` across replications."""
        keys = [
            "makespan_seconds",
            "total_queue_seconds",
            "cumulative_regret",
            "queue_inclusive_regret",
            "interference_inclusive_regret",
            "mean_slowdown",
            "occupancy_cost",
            "accuracy",
        ]
        summaries = [result.summary() for result in self.results]
        table = {key: np.asarray([s[key] for s in summaries]) for key in keys}
        return {
            key: (
                float(values.mean()),
                float(values.std(ddof=1)) if values.size > 1 else 0.0,
            )
            for key, values in table.items()
        }


def run_scenario_replications(
    scenario: "ContentionScenario",
    n_replications: int,
    n_workers: int = 1,
) -> ReplicationSummary:
    """Replicate one scenario over consecutive seeds and aggregate band curves.

    Replication ``i`` runs the scenario with seed ``scenario.seed + i``
    (every stream -- features, arrivals, warm starts, runtime noise,
    exploration -- derives from the scenario seed, so consecutive seeds are
    independent replications of the same setup).  The fan-out reuses
    :func:`run_scenario_sweep`, so ``n_workers > 1`` distributes
    replications over a process pool with the usual thread fallback.
    """
    check_count(n_replications, "n_replications")
    seeds = [scenario.seed + i for i in range(n_replications)]
    replications = [dataclass_replace(scenario, seed=seed) for seed in seeds]
    results = run_scenario_sweep(replications, n_workers=n_workers)
    lengths = {len(result.rows) for result in results}
    if len(lengths) > 1:
        raise RuntimeError(
            f"replications completed unequal workflow counts {sorted(lengths)}; "
            "per-round aggregation needs rectangular curves"
        )
    regret = np.vstack(
        [np.cumsum([float(row["runtime_regret"]) for row in r.rows]) for r in results]
    )
    queue_regret = np.vstack(
        [
            np.cumsum([float(row["queue_inclusive_regret"]) for row in r.rows])
            for r in results
        ]
    )
    interference_regret = np.vstack(
        [
            np.cumsum(
                [
                    float(row["runtime_regret"]) + float(row["interference_seconds"])
                    for row in r.rows
                ]
            )
            for r in results
        ]
    )
    rounds = np.arange(1, len(results[0].rows) + 1)
    slowdown = np.vstack(
        [
            np.cumsum([float(row["slowdown"]) for row in r.rows]) / rounds
            for r in results
        ]
    )
    return ReplicationSummary(
        scenario_name=scenario.name,
        seeds=seeds,
        results=list(results),
        regret_curves=regret,
        queue_regret_curves=queue_regret,
        interference_regret_curves=interference_regret,
        slowdown_curves=slowdown,
    )
