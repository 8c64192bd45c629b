"""Pod schedulers: the queue-discipline axis of scheduling.

A scheduler answers **which pod next** -- service order of the pending
queue (FIFO head-of-line blocking, backfill skip-ahead, priority classes
with preemption).  **Which node** is a separate, orthogonal axis answered
by a pluggable :class:`~repro.cluster.placement.PlacementPolicy`; every
scheduler composes with any placement via the ``placement=`` constructor
argument, and defaults to the policy that reproduces its pre-refactor
behaviour bit for bit (:class:`~repro.cluster.placement.FirstFit` for the
FIFO family, :class:`~repro.cluster.placement.BestFit` for
:class:`BestFitScheduler`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.cluster.node import Node
from repro.cluster.placement import (
    BestFit,
    FirstFit,
    PlacementContext,
    PlacementPolicy,
)
from repro.cluster.pod import Pod
from repro.utils.numeric import ordered_sum

__all__ = [
    "SchedulingDecision",
    "PreemptionDecision",
    "Scheduler",
    "FIFOScheduler",
    "BackfillScheduler",
    "BestFitScheduler",
    "PriorityScheduler",
]

#: Shared failure explanation (pinned by event-log tests).
_NO_CAPACITY = "no node has sufficient free capacity"


@dataclass(frozen=True)
class SchedulingDecision:
    """The outcome of trying to place one pod.

    Attributes
    ----------
    pod_name:
        The pod considered.
    node_name:
        The node chosen, or ``None`` when the pod could not be placed.
    reason:
        Human-readable explanation (used by the event log and by tests).
    """

    pod_name: str
    node_name: Optional[str]
    reason: str

    @property
    def placed(self) -> bool:
        return self.node_name is not None


@dataclass(frozen=True)
class PreemptionDecision:
    """A plan to make room for a pod by evicting lower-priority victims.

    Attributes
    ----------
    pod_name:
        The pod the evictions make room for.
    node_name:
        The node the victims run on (and the pod will be placed on).
    victims:
        Names of the running pods to evict, in eviction order.
    """

    pod_name: str
    node_name: str
    victims: Tuple[str, ...]


class Scheduler(abc.ABC):
    """Base class: a queue discipline composed with a placement policy.

    The queue discipline is :meth:`service_class` plus
    :attr:`head_of_line_blocking`: the simulator serves its pending queue
    in ascending service class, first in first out within a class, and
    keeps it in that order as pods arrive and requeue.

    Parameters
    ----------
    placement:
        The node-choice policy (see :mod:`repro.cluster.placement`).
        Defaults to the scheduler's :meth:`default_placement` --
        first-fit unless a subclass says otherwise -- which keeps every
        scheduler's historical behaviour intact.
    """

    #: Queue discipline: when true, a pending pod that cannot be placed blocks
    #: every pod behind it until capacity frees up (strict FIFO service
    #: order).  When false the simulator may skip ahead and place later pods
    #: that do fit ("backfill"), which improves utilisation but can starve a
    #: large request behind a stream of small ones.
    head_of_line_blocking: bool = False

    #: Whether :meth:`select_victims` may propose evicting running pods to
    #: make room for a blocked pod.  Only the :class:`PriorityScheduler`
    #: enables this.
    supports_preemption: bool = False

    def __init__(self, placement: Optional[PlacementPolicy] = None):
        self.placement = placement if placement is not None else self.default_placement()

    @classmethod
    def default_placement(cls) -> PlacementPolicy:
        """The placement policy used when none is injected."""
        return FirstFit()

    def select_node(
        self,
        pod: Pod,
        nodes: Sequence[Node],
        context: Optional[PlacementContext] = None,
    ) -> SchedulingDecision:
        """Return the placement decision for ``pod`` given the current ``nodes``.

        ``context`` carries co-residency and the active interference model
        for interference-aware placement policies; capacity-only policies
        ignore it (and callers may omit it).
        """
        node = self.placement.select(pod, nodes, context)
        if node is None:
            return SchedulingDecision(pod.name, None, _NO_CAPACITY)
        return SchedulingDecision(pod.name, node.name, self.placement.reason)

    def schedule(
        self,
        pod: Pod,
        nodes: Sequence[Node],
        context: Optional[PlacementContext] = None,
    ) -> SchedulingDecision:
        """Select a node and, if one fits, perform the allocation."""
        decision = self.select_node(pod, nodes, context)
        if decision.placed:
            node = next(n for n in nodes if n.name == decision.node_name)
            node.allocate(pod.name, pod.request)
        return decision

    def service_class(self, pod: Pod) -> int:
        """The pod's service class (``0`` for every pod by default).

        The pending queue is served in ascending class, first in first out
        within a class.  The simulator keeps the queue in that order as pods
        arrive and requeue instead of re-sorting it, so a queued pod's class
        must never change (``Pod.priority`` is only set in ``__init__``).
        """
        return 0

    def select_victims(
        self,
        pod: Pod,
        nodes: Sequence[Node],
        running: Mapping[str, Sequence[Pod]],
    ) -> Optional[PreemptionDecision]:
        """Propose running pods to evict so ``pod`` fits (``None`` = don't).

        ``running`` maps node name to the pods currently executing there.
        Only consulted when :attr:`supports_preemption` is true and
        :meth:`select_node` found no room.
        """
        return None


class FIFOScheduler(Scheduler):
    """Strict first-in-first-out service order (first-fit placement by default).

    A pod that does not fit blocks everything queued behind it until
    capacity frees up -- first *in*, first *out*, even when a later, smaller
    pod would fit right now.  Use :class:`BackfillScheduler` for the
    skip-ahead variant that trades service-order fairness for utilisation.

    The default first-fit placement mirrors a naive scheduler: BanditWare
    controls the *resource request*, not the node choice, so the baseline
    only needs to find capacity.  Pass ``placement=`` to compose the FIFO
    discipline with any other node-choice policy.
    """

    head_of_line_blocking = True


class BackfillScheduler(FIFOScheduler):
    """FIFO service order that skips over pods that do not currently fit.

    Same placement as :class:`FIFOScheduler`, but a pending pod that cannot
    be placed does not block the pods behind it: any later pod that fits is
    started immediately ("backfilling").  This keeps the cluster busy at the
    cost of fairness -- a large request can be starved indefinitely by a
    steady stream of small ones, which is exactly the regression the FIFO
    starvation test pins.
    """

    head_of_line_blocking = False


class BestFitScheduler(Scheduler):
    """Backfill service order with best-fit placement by default.

    Kept as a named class for backwards compatibility: it is exactly
    ``Scheduler(placement=BestFit())``.  Best-fit keeps large contiguous
    capacity free for large requests, which reduces head-of-line blocking
    when workloads with mixed resource requests share the cluster.
    Tie-breaking between equal-fit nodes is deterministic on
    ``(leftover, node.name)`` -- see :class:`~repro.cluster.placement.BestFit`.
    """

    @classmethod
    def default_placement(cls) -> PlacementPolicy:
        return BestFit()


class PriorityScheduler(FIFOScheduler):
    """Priority classes with optional preemption (first-fit placement by default).

    The pending queue is served highest priority class first; within one
    class, strict first-in-first-out order is preserved (the simulator
    inserts each arrival at the back of its class and each preempted victim
    at the front).  The head-of-line discipline is inherited from
    :class:`FIFOScheduler`: because the queue is kept in priority order, a
    blocked pod only ever blocks pods of its own or lower classes -- a
    higher-class pod is always ahead of it -- so no class can starve a class
    above it.

    With ``preemption`` enabled (the default), a blocked pod may evict
    strictly-lower-priority *running* pods to make room.  Victims are chosen
    on a single node, lowest priority first and most-recently-started first
    within a class (least work discarded -- evictions are checkpoint-free, so
    the victim's partial execution is wasted and it requeues from scratch).
    Among nodes that can be freed, the one needing the fewest evictions wins,
    ties broken toward the most recently started victims (least total run
    time wasted).
    """

    def __init__(
        self,
        preemption: bool = True,
        placement: Optional[PlacementPolicy] = None,
    ):
        super().__init__(placement=placement)
        self.supports_preemption = bool(preemption)

    def service_class(self, pod: Pod) -> int:
        return -pod.priority

    def select_victims(
        self,
        pod: Pod,
        nodes: Sequence[Node],
        running: Mapping[str, Sequence[Pod]],
    ) -> Optional[PreemptionDecision]:
        if not self.supports_preemption:
            return None
        best_plan: Optional[Tuple[int, float, str, Tuple[str, ...]]] = None
        for node in nodes:
            candidates = [
                victim
                for victim in running.get(node.name, ())
                if victim.priority < pod.priority
            ]
            # Evict the cheapest work first: lowest class, then the pod that
            # has run for the shortest time (least wasted execution).
            candidates.sort(
                key=lambda v: (v.priority, -(v.start_time or 0.0), v.name)
            )
            free_cpus = node.free_cpus
            free_mem = node.free_memory_gb
            free_gpus = node.free_gpus
            victims: List[Pod] = []
            for victim in candidates:
                if (
                    free_cpus >= pod.request.cpus
                    and free_mem >= pod.request.memory_gb
                    and free_gpus >= pod.request.gpus
                ):
                    break
                victims.append(victim)
                free_cpus += victim.request.cpus
                free_mem += victim.request.memory_gb
                free_gpus += victim.request.gpus
            if (
                free_cpus < pod.request.cpus
                or free_mem < pod.request.memory_gb
                or free_gpus < pod.request.gpus
            ):
                continue  # even evicting every eligible victim is not enough
            if not victims:
                continue  # the pod fits without evictions; not a preemption case
            started = -ordered_sum(v.start_time or 0.0 for v in victims)
            plan = (len(victims), started, node.name, tuple(v.name for v in victims))
            if best_plan is None or plan < best_plan:
                best_plan = plan
        if best_plan is None:
            return None
        _, _, node_name, victims = best_plan
        return PreemptionDecision(pod_name=pod.name, node_name=node_name, victims=victims)
