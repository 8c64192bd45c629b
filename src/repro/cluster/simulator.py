"""The cluster simulator: submit a workload on chosen hardware, observe runtime.

:class:`ClusterSimulator` is the substrate BanditWare interacts with in this
reproduction.  It models a small Kubernetes cluster (a list of
:class:`~repro.cluster.node.Node`), uses a scheduler to place pods, advances a
discrete-event clock, and reports each completed run's observed runtime --
drawn from the workload model's noisy ground truth -- back to the caller.

Two modes of use are supported:

* **Synchronous** (:meth:`run_workload`): submit one workload on one hardware
  configuration and immediately get its completed run.  Only
  :meth:`~repro.integration.RecommendationService.run_workflow` uses it; the
  paper's online loop (:class:`~repro.evaluation.simulation.OnlineSimulation`)
  draws runtimes from the workload model without a cluster.
* **Batched / queued** (:meth:`submit` + :meth:`run_until` /
  :meth:`run_until_idle`): submit many pods and let the event engine
  interleave them, exposing queueing delay when the cluster is saturated.
  The contention engine (:class:`~repro.evaluation.engine.ExperimentEngine`)
  and the examples use this to show resource contention -- one of the
  misallocation costs the paper's introduction motivates.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.cluster.autoscaler import AutoscalerState, AutoscalingNodePool, ScaleEvent
from repro.cluster.events import (
    NODE_DRAIN_CHECK,
    NODE_NEXT_FINISH,
    NODE_PROVISIONED,
    POD_SUBMITTED,
    Event,
    EventQueue,
)
from repro.cluster.interference import InterferenceModel, NoInterference
from repro.cluster.node import InsufficientCapacityError, Node
from repro.cluster.placement import PlacementContext
from repro.cluster.pod import Pod
from repro.cluster.scheduler import FIFOScheduler, Scheduler
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.utils.logging import EventLog, NullLog
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_priority
from repro.workloads.base import RunRecord, WorkloadModel

__all__ = ["CompletedRun", "ClusterSimulator", "KernelProfile"]

_tentative_finish = attrgetter("_finish_at")


@dataclass
class KernelProfile:
    """Wall-clock accounting of the simulator's hot paths.

    Enabled via ``ClusterSimulator.enable_profiling()`` (the CLI's
    ``run-contention --profile`` flag); the counters make hot-path
    regressions diagnosable without re-running cProfile: a jump in
    ``reintegration_seconds`` points at the kernel, ``placement_seconds``
    at the policy, ``scheduling_seconds`` at the queue discipline.
    """

    #: The simulator's event queue; the heap-traffic counters are read from
    #: it whenever the profile is reported.
    queue: EventQueue
    #: Seconds spent re-integrating progress / rescheduling tentative
    #: finishes on topology changes (:meth:`ClusterSimulator._reschedule_node`).
    reintegration_seconds: float = 0.0
    #: Seconds spent in schedule passes over the pending queue, *including*
    #: placement (placement is also reported separately below).
    scheduling_seconds: float = 0.0
    #: Seconds spent inside placement decisions (``scheduler.schedule`` /
    #: ``select_node`` calls).
    placement_seconds: float = 0.0
    reschedule_calls: int = 0
    pods_rescheduled: int = 0
    schedule_passes: int = 0
    placement_calls: int = 0

    # Heap traffic: total events scheduled, live events handled, and
    # cancelled (superseded frontier) entries discarded without handling.
    # Under the per-node frontier protocol ``events_pushed`` stays
    # O(completions + topology changes) instead of O(pods x topology changes).
    @property
    def events_pushed(self) -> int:
        return self.queue.pushed

    @property
    def events_popped(self) -> int:
        return self.queue.popped

    #: Every handled event is a popped one.
    events_processed = events_popped

    @property
    def events_skipped(self) -> int:
        return self.queue.skipped

    def as_dict(self) -> Dict[str, float]:
        return {
            "reintegration_seconds": self.reintegration_seconds,
            "scheduling_seconds": self.scheduling_seconds,
            "placement_seconds": self.placement_seconds,
            "events_processed": float(self.events_processed),
            "reschedule_calls": float(self.reschedule_calls),
            "pods_rescheduled": float(self.pods_rescheduled),
            "schedule_passes": float(self.schedule_passes),
            "placement_calls": float(self.placement_calls),
            "events_pushed": float(self.events_pushed),
            "events_popped": float(self.events_popped),
            "events_skipped": float(self.events_skipped),
        }

    @staticmethod
    def clock() -> float:
        return perf_counter()


@dataclass(frozen=True)
class CompletedRun:
    """The observable outcome of one workload execution.

    Attributes
    ----------
    record:
        The run record (features, hardware, observed runtime) in the format
        the data pipeline and the bandit consume.
    queue_seconds:
        Time the pod spent waiting for capacity before starting.
    node:
        Node the pod executed on.
    pod_name:
        Name of the pod that executed the run (queued mode only; ``None`` for
        synchronous :meth:`ClusterSimulator.run_workload` runs, which never
        materialise a pod).  Callers driving the queued path use this to map
        completions back to their own bookkeeping (e.g. workflow tickets).
    finish_time:
        Simulation time the run completed.  Synchronous runs do not advance
        the clock, so they report whatever the clock read when they were
        executed; use ``pod_name is None`` to tell the two modes apart.
    preemptions:
        How many times the pod was evicted and requeued before completing.
    wasted_runtime_seconds:
        Run time discarded by those evictions (checkpoint-free restarts).
    planned_runtime_seconds:
        The run's contention-free ground-truth runtime (the noisy draw made
        at submission).  The record's ``runtime_seconds`` is what the
        platform *observed* -- equal to the plan without interference,
        inflated when co-residents slowed the pod down.
    """

    record: RunRecord
    queue_seconds: float
    node: str
    pod_name: Optional[str] = None
    finish_time: float = 0.0
    preemptions: int = 0
    wasted_runtime_seconds: float = 0.0
    planned_runtime_seconds: Optional[float] = None

    @property
    def slowdown(self) -> float:
        """Observed over planned runtime (1.0 exactly without interference)."""
        if not self.planned_runtime_seconds:
            return 1.0
        return self.record.runtime_seconds / self.planned_runtime_seconds


def _default_nodes() -> List[Node]:
    """A small heterogeneous cluster roughly shaped like an NDP slice."""
    return [
        Node("node-a", cpus=16, memory_gb=64),
        Node("node-b", cpus=16, memory_gb=64),
        Node("node-c", cpus=32, memory_gb=128),
    ]


class ClusterSimulator:
    """Simulate workload execution on a small Kubernetes-like cluster.

    Parameters
    ----------
    workload:
        The application model providing ground-truth runtimes.
    catalog:
        Hardware configurations requests may use.
    nodes:
        Cluster nodes; defaults to a 3-node, 64-core cluster that can fit any
        single request from the paper's catalogs.
    scheduler:
        Queue discipline composed with a placement policy; defaults to
        FIFO service order with first-fit placement.  Ordering ("which pod
        next") and placement ("which node") are independent axes: pass e.g.
        ``FIFOScheduler(placement=LeastSlowdown())`` to combine strict FIFO
        with interference-aware node choice.
    seed:
        Seed for runtime-noise draws.
    log:
        Optional event log recording submissions, placements and completions.
    autoscaler:
        Optional :class:`~repro.cluster.autoscaler.AutoscalingNodePool`
        description.  When given, pods that cannot be placed trigger
        scale-up requests (new nodes join after the pool's provisioning
        delay, via events in the main queue) and idle pool nodes are drained.
    interference:
        How co-located pods perturb each other's progress rate (see
        :mod:`repro.cluster.interference`).  Defaults to
        :class:`~repro.cluster.interference.NoInterference`, under which the
        progress-based engine is bit-identical to fixed finish times.

    Execution is **progress-based**: each pod carries ``work_seconds``
    (drawn once at submission) and advances at the rate the interference
    model reports for its current co-residency.  Every topology change --
    pod start, finish, preemption, autoscale provision or drain -- lazily
    re-integrates affected pods' progress at the old rate and rewrites
    their tentative finish times at the new one.  Completions are driven by
    a **per-node finish frontier**: each node keeps exactly one live
    ``node_next_finish`` event at the minimum of its residents' tentative
    finishes, re-pushed (with the superseded event cancelled in O(1)) only
    when that minimum moves, so heap traffic is O(completions + topology
    changes) instead of O(pods x topology changes).  When the event fires,
    the first resident with the earliest tentative finish is the finishing
    pod.
    """

    def __init__(
        self,
        workload: WorkloadModel,
        catalog: HardwareCatalog,
        nodes: Optional[Sequence[Node]] = None,
        scheduler: Optional[Scheduler] = None,
        seed: SeedLike = None,
        log: Optional[EventLog] = None,
        autoscaler: Optional[AutoscalingNodePool] = None,
        interference: Optional[InterferenceModel] = None,
    ):
        self.workload = workload
        self.catalog = catalog
        self.nodes: List[Node] = list(nodes) if nodes is not None else _default_nodes()
        if not self.nodes:
            raise ValueError("the cluster requires at least one node")
        self.scheduler = scheduler or FIFOScheduler()
        self.interference = interference if interference is not None else NoInterference()
        self._rng = as_generator(seed)
        self.log = log if log is not None else NullLog()
        self._events = EventQueue()
        self._pending: List[Pod] = []
        self._pods: Dict[str, Pod] = {}
        self._pod_workloads: Dict[str, WorkloadModel] = {}
        # The one co-residency record: node name -> running pods in
        # allocation order, updated on start/finish/preempt/provision/drain.
        # Re-integration, finish selection and interference-aware placement
        # all read it.
        self._running: Dict[str, List[Pod]] = {n.name: [] for n in self.nodes}
        # The finish frontier: node name -> the node's single live
        # ``node_next_finish`` event (absent when the node has no residents).
        # Entries are popped when the event fires and cancelled + replaced
        # when a topology change moves the node's earliest tentative finish.
        self._frontier: Dict[str, Event] = {}
        self._context_cache: Optional[PlacementContext] = None
        self._profile: Optional[KernelProfile] = None
        # Feasibility verdicts per hardware name.  They are judged against
        # node *total* capacity, so the answers only change when the node set
        # itself changes -- which only the autoscaler does, and every
        # topology change clears this cache.
        self._feasibility: Dict[str, Optional[str]] = {}
        self._completed: List[CompletedRun] = []
        self._pod_counter = itertools.count(1)
        self._run_counter = itertools.count(1)
        self._autoscaler = AutoscalerState(autoscaler) if autoscaler is not None else None

    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._events.now

    def enable_profiling(self) -> KernelProfile:
        """Switch on hot-path wall-clock accounting and return the profile.

        Used by ``run-contention --profile``: the returned
        :class:`KernelProfile` accumulates time spent
        in progress re-integration, schedule passes and placement decisions
        for the rest of the simulator's life.
        """
        if self._profile is None:
            self._profile = KernelProfile(self._events)
        return self._profile

    def _resolve_hardware(self, hardware: HardwareConfig | str) -> HardwareConfig:
        if isinstance(hardware, HardwareConfig):
            if hardware.name not in self.catalog:
                raise KeyError(
                    f"hardware {hardware.name!r} is not in the simulator's catalog "
                    f"({self.catalog.names})"
                )
            return self.catalog[hardware.name]
        return self.catalog[hardware]

    def feasible_node(self, request: HardwareConfig) -> Optional[Node]:
        """The node the scheduler would place ``request`` on in an empty cluster.

        Feasibility is judged against each node's *total* capacity (a run
        executed "alone"), not its current free capacity, so the answer is
        stable regardless of what is queued (and is cached per hardware
        name; autoscaler topology changes clear the cache).  Returns ``None``
        when no current node can ever fit the request.
        """
        if request.name not in self._feasibility:
            pristine = [n.clone() for n in self.nodes]
            probe = Pod(name="feasibility-probe", request=request)
            # Probes run against pristine (empty) clones, so the placement
            # context carries no co-residents: every policy -- including the
            # interference-aware ones -- answers deterministically from
            # total capacity, which is what makes the per-hardware cache
            # valid until the node set itself changes.
            context = PlacementContext(interference=self.interference, running={})
            decision = self.scheduler.select_node(probe, pristine, context)
            self._feasibility[request.name] = decision.node_name
        node_name = self._feasibility[request.name]
        if node_name is None:
            return None
        return next(n for n in self.nodes if n.name == node_name)

    def request_feasible(self, request: HardwareConfig) -> bool:
        """Whether ``request`` can ever be scheduled.

        True when some current node's total capacity fits it, or when the
        autoscaler could provision a pool node that does.
        """
        if self.feasible_node(request) is not None:
            return True
        return self._autoscaler is not None and self._autoscaler.pool.fits_template(
            request.cpus, request.memory_gb, request.gpus
        )

    # ------------------------------------------------------------------ #
    # Synchronous single-run interface (RecommendationService.run_workflow)
    # ------------------------------------------------------------------ #
    def run_workload(
        self,
        features: Dict[str, float],
        hardware: HardwareConfig | str,
        workload: Optional[WorkloadModel] = None,
    ) -> CompletedRun:
        """Execute one workflow on ``hardware`` and return its completed run.

        The run is executed "alone": it does not contend with queued pods, so
        the observed runtime reflects only the workload model's ground truth
        plus noise, matching the per-run runtimes in the paper's datasets.
        "Alone" still requires capacity to exist: the request must fit some
        node's total capacity, and the reported node is the one the scheduler
        would pick in an empty cluster -- the same feasibility rule the queued
        path enforces, so a request that succeeds here cannot deadlock there.

        Raises
        ------
        InsufficientCapacityError
            If the request exceeds every node's total capacity.
        """
        config = self._resolve_hardware(hardware)
        workload = workload if workload is not None else self.workload
        node = self.feasible_node(config)
        if node is None:
            raise InsufficientCapacityError(
                f"request {config.as_tuple()} exceeds every node's total capacity; "
                f"nodes: {[(n.name, n.cpus, n.memory_gb) for n in self.nodes]}"
            )
        runtime = workload.observed_runtime(features, config, self._rng)
        record = RunRecord(
            run_id=f"{workload.name}-run-{next(self._run_counter):06d}",
            application=workload.name,
            hardware=config.name,
            runtime_seconds=runtime,
            features=dict(features),
        )
        run = CompletedRun(
            record=record,
            queue_seconds=0.0,
            node=node.name,
            finish_time=self.now,
            planned_runtime_seconds=runtime,
        )
        self._completed.append(run)
        if self.log.enabled:
            self.log.record(
                "cluster",
                "run_completed",
                time=self.now,
                run_id=record.run_id,
                hardware=config.name,
                runtime=runtime,
            )
        return run

    # ------------------------------------------------------------------ #
    # Queued interface (event-driven, exposes contention)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        features: Dict[str, float],
        hardware: HardwareConfig | str,
        at_time: Optional[float] = None,
        workload: Optional[WorkloadModel] = None,
        priority: int = 0,
    ) -> Pod:
        """Submit a pod requesting ``hardware`` for a workflow with ``features``.

        ``workload`` selects which application model provides the pod's
        ground-truth runtime; it defaults to the simulator's own workload.
        Passing it per pod lets multiple tenants (applications) share one
        cluster, which is what the contention-aware evaluation drives.
        ``priority`` is the pod's priority class (higher = more important,
        an integer); only priority-aware schedulers read it.  ``at_time``
        must be finite and not before :attr:`now`.  Every argument is
        checked before the pod takes a name or draws its runtime, so a
        rejected call leaves the simulator untouched.

        Raises
        ------
        ValueError
            If ``at_time`` is non-finite or in the past.
        TypeError
            If ``priority`` is not an integer (a ``bool`` is rejected too).
        InsufficientCapacityError
            If the request exceeds every node's *total* capacity and no
            autoscaler pool node could ever fit it (same rule as
            :meth:`run_workload`).  Under the FIFO scheduler's head-of-line
            blocking an infeasible pod would silently wedge every pod behind
            it until the event budget drains, so the two modes fail fast and
            consistently at the point of error instead.
        """
        config = self._resolve_hardware(hardware)
        if not self.request_feasible(config):
            raise InsufficientCapacityError(
                f"request {config.as_tuple()} exceeds every node's total capacity "
                "and can never be scheduled; "
                f"nodes: {[(n.name, n.cpus, n.memory_gb) for n in self.nodes]}"
            )
        submit_time = self.now if at_time is None else float(at_time)
        if not math.isfinite(submit_time) or submit_time < self.now:
            raise ValueError(
                f"at_time must be finite and not before the current time t={self.now} "
                f"(got {at_time!r})"
            )
        priority = check_priority(priority)
        workload = workload if workload is not None else self.workload
        name = f"pod-{next(self._pod_counter):06d}"
        pod = Pod(
            name=name,
            request=config,
            features=dict(features),
            application=workload.name,
            priority=priority,
        )
        # Draw the ground-truth runtime ONCE, at submission.  Drawing at
        # start time (the old engine) made observed runtimes depend on
        # scheduling order -- and a preempted pod re-drew noise from the
        # shared RNG on restart, breaking replication determinism.
        pod.work_seconds = float(workload.observed_runtime(features, config, self._rng))
        self._events.push(submit_time, POD_SUBMITTED, pod_name=name)
        self._pods[name] = pod
        self._pod_workloads[name] = workload
        if self.log.enabled:
            self.log.record(
                "cluster", "pod_submitted", time=submit_time, pod=name, hardware=config.name
            )
        return pod

    def _running_pods_by_node(self) -> Dict[str, List[Pod]]:
        """Currently running pods grouped by the node they occupy.

        Served from the incrementally maintained co-residency map (updated
        on start/finish/preempt/provision/drain); the returned dict carries
        fresh lists in cluster-node order, so callers may keep or mutate it
        freely.
        """
        return {node.name: list(self._running[node.name]) for node in self.nodes}

    def _placement_context(self) -> Optional[PlacementContext]:
        """Live co-residency + interference for interference-aware placement.

        ``None`` for capacity-only policies (first-fit, best-fit, ...):
        they never read the context, and skipping the per-placement
        co-residency snapshot keeps the default path exactly as cheap as
        the pre-refactor schedulers.  For context-reading policies the
        returned object is a cached view over the live co-residency map --
        placements and completions update the map in place, so there is
        nothing to rebuild between schedule passes.
        """
        if not self.scheduler.placement.needs_context:
            return None
        if self._context_cache is None:
            self._context_cache = PlacementContext(
                interference=self.interference, running=self._running
            )
        return self._context_cache

    def _start_pod(self, pod: Pod, node_name: str, reason: str) -> None:
        """Transition a placed pod to running and (re)schedule the node's finishes.

        Starting a pod changes its node's co-residency, so every resident's
        progress rate -- the new pod's included -- is re-evaluated.
        """
        pod.mark_running(self.now, node_name)
        self._running[node_name].append(pod)
        if self._autoscaler is not None:
            self._autoscaler.idle_since.pop(node_name, None)
        node = next(n for n in self.nodes if n.name == node_name)
        self._reschedule_node(node)
        if self.log.enabled:
            self.log.record(
                "scheduler",
                "pod_scheduled",
                time=self.now,
                pod=pod.name,
                node=node_name,
                reason=reason,
            )

    def _reschedule_node(self, node: Node) -> None:
        """Re-integrate progress and move the finish frontier on ``node``.

        Called on every topology change touching the node.  One
        ``node_speeds`` call recomputes every resident's rate (checked: one
        rate per resident, each in ``(0, 1]``, 1.0 for a lone pod); a pod
        whose rate is unchanged keeps its tentative ``_finish_at`` (progress
        integration is lazy -- the rate is piecewise constant between
        changes, so deferring the integral to the next change is exact).
        Changed pods get their finish times rewritten; no per-pod events are
        pushed.  The node's single ``node_next_finish`` event is then
        re-pushed only if the frontier (min over residents) moved, with the
        superseded event cancelled in O(1) -- so heap traffic per topology
        change is O(1), not O(residents).
        """
        profile = self._profile
        started = KernelProfile.clock() if profile is not None else 0.0
        pods = self._running[node.name]
        if not pods:
            # No residents left: the node has no next finish.  The popped
            # frontier event (if any) must be cancelled here, not left to
            # fire against an empty node.
            current = self._frontier.pop(node.name, None)
            if current is not None:
                self._events.cancel(current)
            if profile is not None:
                profile.reschedule_calls += 1
                profile.reintegration_seconds += KernelProfile.clock() - started
            return
        speeds = self.interference.node_speeds(node, pods)
        if len(speeds) != len(pods):
            raise ValueError(
                f"interference model {type(self.interference).__name__} returned "
                f"{len(speeds)} progress rates for the {len(pods)} pods on node "
                f"{node.name!r}; it must return one rate per resident"
            )
        for pod, speed in zip(pods, speeds):
            if not 0.0 < speed <= 1.0:
                raise ValueError(
                    f"interference model {type(self.interference).__name__} returned "
                    f"progress rate {speed!r} for pod {pod.name!r}; rates must be in (0, 1]"
                )
        if len(pods) == 1 and speeds[0] != 1.0:
            raise ValueError(
                f"interference model {type(self.interference).__name__} slowed a "
                f"pod running alone (rate {speeds[0]!r}); solo pods must run at 1.0"
            )
        now = self.now
        n_changed = 0
        for pod, speed in zip(pods, speeds):
            old_speed = pod.speed
            if speed == old_speed:  # an unset rate (None) always changes
                continue
            if old_speed is not None:
                elapsed = now - pod._progress_updated_at
                pod.progress_seconds += elapsed * old_speed
                pod._running_wall_seconds += elapsed
            pod._progress_updated_at = now
            pod.speed = speed
            remaining = max(pod.work_seconds - pod.progress_seconds, 0.0) / speed
            # The wall remainder is kept alongside the finish time so
            # completion can report the drawn runtime without a lossy
            # ``finish - updated_at`` subtraction.
            pod._remaining = remaining
            pod._finish_at = now + remaining
            pod.progress_log.append((now, speed))
            n_changed += 1
        self._update_frontier(node, min(map(_tentative_finish, pods)))
        if profile is not None:
            profile.reschedule_calls += 1
            profile.pods_rescheduled += n_changed
            profile.reintegration_seconds += KernelProfile.clock() - started

    def _update_frontier(self, node: Node, t: float) -> None:
        """Re-point the node's ``node_next_finish`` event at time ``t``.

        ``t`` is the minimum tentative finish over the node's residents.  If
        it equals the outstanding event's time the event is kept -- the
        finishing pod is picked at fire time, so it does not matter *which*
        resident defines the frontier, only *when* it is.  Otherwise the
        outstanding event is cancelled (O(1), handled never) and one event
        is pushed at the new frontier.
        """
        current = self._frontier.get(node.name)
        if current is not None:
            if current.time == t:
                return
            self._events.cancel(current)
        self._frontier[node.name] = self._events.push_frontier(t, node)

    def _preempt_victims(self, plan) -> List[Pod]:
        """Evict the plan's victims (checkpoint-free) and return them."""
        node = next(n for n in self.nodes if n.name == plan.node_name)
        victims: List[Pod] = []
        for name in plan.victims:
            victim = self._pods[name]
            node.release(name)
            self._running[node.name].remove(victim)
            victim.mark_preempted(self.now)
            victims.append(victim)
            if self.log.enabled:
                self.log.record(
                    "scheduler",
                    "pod_preempted",
                    time=self.now,
                    pod=name,
                    node=plan.node_name,
                    preempted_by=plan.pod_name,
                )
        # The evictions changed the node's co-residency: surviving residents
        # may speed up (the preemptor's own placement reschedules again).
        self._reschedule_node(node)
        return victims

    def _try_schedule_pending(self) -> None:
        while self._schedule_pass():
            pass
        self._maybe_scale_up()

    def _enqueue(self, pod: Pod, front: bool = False) -> None:
        """Insert ``pod`` into the pending queue at its place in service order.

        The queue is always in ascending :meth:`Scheduler.service_class`,
        first in first out within a class, so an arrival goes to the back of
        its class.  A preemption victim (``front=True``) goes to the front: it
        was admitted -- and running -- earlier than everything still pending
        in its class, so it competes for the eviction's leftover capacity
        before any pod queued behind it.
        """
        key = self.scheduler.service_class
        find = bisect_left if front else bisect_right
        self._pending.insert(find(self._pending, key(pod), key=key), pod)

    def _schedule_pass(self) -> bool:
        """One pass over the pending queue; True when a preemption ended it.

        The queue is already in service order (see :meth:`_enqueue`), so the
        pass walks it in place from the head and removes each pod it places.
        Under head-of-line blocking the first pod that cannot be placed ends
        the pass, and the pods behind it are never touched.  A preemption
        places its pod, requeues the victims at the front of their classes
        and ends the pass, so the caller restarts it with the victims first
        in line for what the eviction left over.  Chains terminate because
        every preemption places a strictly higher-priority pod than each pod
        it evicts.
        """
        profile = self._profile
        pass_started = KernelProfile.clock() if profile is not None else 0.0
        scheduler = self.scheduler
        queue = self._pending
        preempted = False
        # The cached context wraps the live co-residency map, which every
        # successful placement (and preemption) updates in place -- so one
        # context object serves the whole pass.
        context = self._placement_context()
        i = 0
        while i < len(queue):
            pod = queue[i]
            decision = self._place(pod, context)
            if not decision.placed and scheduler.supports_preemption:
                plan = scheduler.select_victims(pod, self.nodes, self._running_pods_by_node())
                if plan is not None:
                    victims = self._preempt_victims(plan)
                    decision = self._place(pod, self._placement_context())
                    preempted = True
            if decision.placed:
                del queue[i]
                self._start_pod(pod, decision.node_name, decision.reason)
            if preempted:
                # Victim plans list most-recently-started first; inserting
                # them at the front of their class in reverse pod-name order
                # (pod-NNNNNN, monotonic in submission order) leaves
                # same-class victims first in, first out.
                for victim in sorted(victims, key=attrgetter("name"), reverse=True):
                    self._enqueue(victim, front=True)
                break
            if not decision.placed:
                # Strict FIFO service order: an unplaceable pod at the head of
                # the queue blocks everything behind it, so a large request
                # cannot be starved by a stream of small skip-ahead pods.
                if scheduler.head_of_line_blocking:
                    break
                i += 1
        if profile is not None:
            profile.schedule_passes += 1
            profile.scheduling_seconds += KernelProfile.clock() - pass_started
        return preempted

    def _place(self, pod: Pod, context: Optional[PlacementContext]):
        """One placement decision, timed when profiling is enabled."""
        profile = self._profile
        if profile is None:
            return self.scheduler.schedule(pod, self.nodes, context)
        started = KernelProfile.clock()
        decision = self.scheduler.schedule(pod, self.nodes, context)
        profile.placement_calls += 1
        profile.placement_seconds += KernelProfile.clock() - started
        return decision

    def _maybe_scale_up(self) -> None:
        """Request pool nodes for pending pods that current capacity can't place.

        The deficit is computed by packing the eligible pending pods into
        hypothetical fresh template nodes *with the scheduler's own
        placement policy* (a new bin is opened only when the policy places
        nowhere), minus capacity already being provisioned, capped by the
        pool's ``max_nodes``.  Under the default first-fit placement this
        reproduces the pre-refactor bin count exactly.  Other policies may
        legitimately count differently: which bin a pod lands in changes
        the residual capacity, so e.g. spread can leave a later pod without
        a home that first-fit's packing would have preserved (and open an
        extra bin) -- the estimate deliberately mirrors how the policy will
        place the pods once capacity exists.
        """
        state = self._autoscaler
        if state is None or not self._pending:
            return
        pool = state.pool
        # Unschedulable right now (no node has free room) and eligible for a
        # pool node.  Pods merely blocked behind a bigger head-of-line pod do
        # not trigger scale-up; pods that will get room when a running pod
        # finishes may -- autoscalers over-provision under churn by design.
        waiting = [
            pod
            for pod in self._pending
            if not any(node.fits(pod.request) for node in self.nodes)
            and pool.fits_template(pod.request.cpus, pod.request.memory_gb, pod.request.gpus)
        ]
        if not waiting:
            return
        # Pack the waiting pods into hypothetical empty template nodes using
        # the active placement policy; each placed pod becomes a co-resident
        # of its bin so interference-aware policies see the packing build up.
        bins: List[Node] = []
        bin_running: Dict[str, List[Pod]] = {}
        placement = self.scheduler.placement
        context = PlacementContext(interference=self.interference, running=bin_running)
        for pod in waiting:
            chosen = placement.select(pod, bins, context) if bins else None
            if chosen is None:
                chosen = pool.template_node(f"{pool.name_prefix}-deficit-{len(bins) + 1}")
                bins.append(chosen)
                bin_running[chosen.name] = []
            chosen.allocate(pod.name, pod.request)
            bin_running[chosen.name].append(pod)
        deficit = len(bins) - state.in_flight
        budget = pool.max_nodes - state.total
        for _ in range(max(0, min(deficit, budget))):
            name = state.next_name()
            state.in_flight += 1
            ready = self.now + pool.provision_delay_seconds
            self._events.push(ready, NODE_PROVISIONED, node_name=name)
            state.events.append(ScaleEvent(self.now, "scale_up_requested", name))
            if self.log.enabled:
                self.log.record(
                    "autoscaler", "scale_up_requested", time=self.now, node=name, ready_at=ready
                )

    def _handle_node_provisioned(self, event) -> None:
        state = self._autoscaler
        assert state is not None, "node_provisioned without an autoscaler"
        name = event.payload["node_name"]
        node = state.pool.template_node(name)
        self.nodes.append(node)
        self._running[name] = []
        self._feasibility.clear()
        state.in_flight -= 1
        state.alive += 1
        state.provisioned_at[name] = float(event.time)
        state.events.append(ScaleEvent(float(event.time), "node_provisioned", name))
        if self.log.enabled:
            self.log.record("autoscaler", "node_provisioned", time=event.time, node=name)
        self._mark_node_idle(name, float(event.time))
        self._try_schedule_pending()

    def _mark_node_idle(self, node_name: str, time: float) -> None:
        """Stamp a pool node idle and schedule its drain check."""
        state = self._autoscaler
        if state is None or node_name not in state.provisioned_at:
            return
        state.idle_since[node_name] = time
        if state.pool.scale_down_idle_seconds is not None:
            self._events.push(
                time + state.pool.scale_down_idle_seconds,
                NODE_DRAIN_CHECK,
                node_name=node_name,
                idle_stamp=time,
            )

    def _handle_node_drain_check(self, event) -> None:
        state = self._autoscaler
        if state is None:
            return
        name = event.payload["node_name"]
        # Stale check: the node was reused (or already drained) since the
        # stamp was taken.
        if state.idle_since.get(name) != event.payload["idle_stamp"]:
            return
        node = next((n for n in self.nodes if n.name == name), None)
        if node is None or node.allocations:
            return
        self.nodes.remove(node)
        self._running.pop(name, None)
        self._feasibility.clear()
        state.alive -= 1
        state.idle_since.pop(name, None)
        started = state.provisioned_at.pop(name)
        state.lifetimes.append((name, started, float(event.time)))
        state.events.append(ScaleEvent(float(event.time), "node_drained", name))
        if self.log.enabled:
            self.log.record("autoscaler", "node_drained", time=event.time, node=name)

    def _handle_node_finish(self, event) -> None:
        """Complete the finishing pod named by a fired frontier event.

        The event carries only its node; the finishing pod is the resident
        with the earliest tentative finish, picked at fire time (ties
        resolve to the earliest resident in allocation order, matching the
        per-pod-event engine's push order).  The queue never surfaces
        superseded frontier events, so every event reaching this handler is
        a genuine completion.
        """
        node = event.node
        # The fired event is consumed; _reschedule_node pushes the node's
        # next frontier below.
        self._frontier.pop(node.name, None)
        residents = self._running[node.name]
        pod = min(residents, key=_tentative_finish)
        node.release(pod.name)
        residents.remove(pod)
        pod.mark_finished(event.time)
        workload = self._pod_workloads.get(pod.name, self.workload)
        # Close out progress with the *scheduled* wall remainder rather than
        # finish - start: the subtraction loses low-order bits once the
        # clock is large, and an uninterfered run must report the drawn
        # runtime bit-for-bit (matching the synchronous path).
        runtime = pod.complete_progress(pod._remaining)
        record = RunRecord(
            run_id=f"{workload.name}-run-{next(self._run_counter):06d}",
            application=workload.name,
            hardware=pod.request.name,
            runtime_seconds=runtime,
            features=dict(pod.features),
        )
        self._completed.append(
            CompletedRun(
                record=record,
                queue_seconds=float(pod.queue_seconds or 0.0),
                node=node.name,
                pod_name=pod.name,
                finish_time=float(event.time),
                preemptions=pod.preemptions,
                wasted_runtime_seconds=pod.wasted_runtime_seconds,
                planned_runtime_seconds=pod.work_seconds,
            )
        )
        if self.log.enabled:
            self.log.record(
                "cluster",
                "pod_finished",
                time=event.time,
                pod=pod.name,
                runtime=runtime,
            )
        # The departure freed capacity: surviving residents speed up
        # before the pending queue competes for the room.
        self._reschedule_node(node)
        if not node.allocations:
            self._mark_node_idle(node.name, float(event.time))
        self._try_schedule_pending()

    def _handle_event(self, event) -> None:
        kind = event.kind
        # ``node_next_finish`` first: under the frontier protocol it is the
        # most frequent kind (one completion per firing), and the kinds are
        # interned so each comparison is a pointer check.
        if kind == NODE_NEXT_FINISH:
            self._handle_node_finish(event)
        elif kind == POD_SUBMITTED:
            pod = self._pods[event.payload["pod_name"]]
            pod.mark_submitted(event.time)
            self._enqueue(pod)
            self._try_schedule_pending()
        elif kind == NODE_PROVISIONED:
            self._handle_node_provisioned(event)
        elif kind == NODE_DRAIN_CHECK:
            self._handle_node_drain_check(event)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown event kind {event.kind!r}")

    def run_until_idle(self, max_events: int = 1_000_000) -> List[CompletedRun]:
        """Process events until no pods remain pending or running.

        Returns the runs completed during this call (in completion order).
        ``max_events`` budgets *handled* events only: superseded (cancelled)
        frontier entries are discarded by the queue without being counted,
        so a long interference-heavy run cannot spuriously exhaust the
        budget on stale heap backlog.  Skipped-entry totals are reported
        separately via :attr:`event_stats` and the kernel profile's
        ``events_skipped``.
        """
        before = len(self._completed)
        processed = 0
        while self._events and processed < max_events:
            self._handle_event(self._events.pop())
            processed += 1
        if self._events:
            raise RuntimeError(f"event budget of {max_events} exhausted with events remaining")
        if self._pending:
            # Defensive: submit() rejects infeasible requests up front, so
            # this can only trigger if capacity was mutated after admission.
            infeasible = [p.name for p in self._pending if not self.request_feasible(p.request)]
            blocked = [p.name for p in self._pending if p.name not in set(infeasible)]
            message = (
                f"pods {infeasible} can never be scheduled: "
                "requests exceed every node's capacity"
                if infeasible
                else f"pods {blocked} are pending with no events left to free capacity"
            )
            if infeasible and blocked:
                message += f"; pods {blocked} are blocked behind them in the FIFO queue"
            raise InsufficientCapacityError(message)
        return self._completed[before:]

    def run_until(self, time: float) -> List[CompletedRun]:
        """Process all events up to and including ``time``, then stop.

        The simulation clock advances exactly to ``time`` even when no event
        falls in the window (:meth:`EventQueue.drain` semantics), so callers
        interleaving external arrivals with the event engine can step the
        clock deterministically.  Returns the runs completed during this call
        in completion order.  ``time`` must be finite: no event time compares
        greater than NaN, and a clock set to infinity admits no later submit.
        """
        until = float(time)
        if not math.isfinite(until):
            raise ValueError(f"run_until needs a finite time (got {time!r})")
        before = len(self._completed)
        self._events.drain(self._handle_event, until=until)
        return self._completed[before:]

    def peek_next_event_time(self) -> Optional[float]:
        """Time of the next *live* event, or ``None`` when the engine is idle.

        Frontier-aware: a cancelled (superseded) ``node_next_finish`` entry
        is never surfaced, so callers interleaving external arrivals --
        :class:`~repro.evaluation.engine.ExperimentEngine` -- only wake at
        timestamps where the simulator will actually do work.
        """
        return self._events.peek_time()

    @property
    def has_work(self) -> bool:
        """Whether any live events remain (pods submitted, running or queued)."""
        return bool(self._events)

    @property
    def event_stats(self) -> Dict[str, int]:
        """Heap-traffic counters of the event engine.

        ``pushed`` events ever scheduled, ``popped`` events handled,
        ``skipped`` cancelled (superseded-frontier) entries discarded, and
        ``pending`` live events still queued.
        """
        q = self._events
        return {"pushed": q.pushed, "popped": q.popped, "skipped": q.skipped, "pending": len(q)}

    # ------------------------------------------------------------------ #
    # Autoscaler introspection
    # ------------------------------------------------------------------ #
    @property
    def scale_events(self) -> List[ScaleEvent]:
        """Autoscaling actions so far (empty without an autoscaler)."""
        return list(self._autoscaler.events) if self._autoscaler is not None else []

    def pool_node_lifetimes(self) -> List[tuple]:
        """``(node_name, provisioned_at, drained_at)`` per pool node.

        Nodes still alive report the current simulation time as their
        (provisional) end, so lifetime cost can be integrated at any point.
        """
        if self._autoscaler is None:
            return []
        done = list(self._autoscaler.lifetimes)
        done.extend(
            (name, started, self.now)
            for name, started in sorted(self._autoscaler.provisioned_at.items())
        )
        return done
