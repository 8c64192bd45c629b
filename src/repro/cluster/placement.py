"""Pluggable pod-to-node placement policies.

Scheduling on this cluster is two independent questions:

* **which pod next** -- the queue discipline (FIFO, backfill skip-ahead,
  priority classes).  That axis lives in the
  :mod:`~repro.cluster.scheduler` classes.
* **which node** -- given the pod the queue discipline picked, where does it
  go?  That axis lives here.

Every :class:`~repro.cluster.scheduler.Scheduler` composes with any
:class:`PlacementPolicy` (say, priority scheduling with spread placement),
and the cluster's interference model becomes a
placement *input*: :class:`LeastSlowdown` scores candidate nodes by the
post-placement slowdown of the pod **and** its prospective co-residents, so
the simulator can avoid (or, with :class:`Pack`, deliberately create) noisy
neighbours.

Every policy is a frozen dataclass (picklable, sweep-able over process
pools) and must be **deterministic**: ties are broken by cluster order or
node name, never by iteration order of a set or dict.  :class:`FirstFit` is
the default everywhere and reproduces the pre-refactor schedulers bit for
bit -- the placement parity suite pins this against reference values
captured before the refactor.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.cluster.interference import InterferenceModel, NoInterference
from repro.cluster.node import Node
from repro.cluster.pod import Pod

__all__ = [
    "PlacementContext",
    "PlacementPolicy",
    "FirstFit",
    "BestFit",
    "WorstFit",
    "Pack",
    "LeastSlowdown",
    "PLACEMENT_POLICIES",
    "build_placement",
]


@dataclass(frozen=True)
class PlacementContext:
    """What a placement policy may know beyond free capacity.

    Attributes
    ----------
    interference:
        The cluster's active interference model.  Interference-aware
        policies query it for hypothetical post-placement progress rates.
    running:
        The pods currently executing on each node, keyed by node name.
        Policies must treat missing keys as "no residents" (feasibility
        probes and autoscaler deficit packing run against pristine nodes).
    """

    interference: InterferenceModel = field(default_factory=NoInterference)
    running: Mapping[str, Sequence[Pod]] = field(default_factory=dict)

    def residents(self, node: Node) -> Sequence[Pod]:
        return self.running.get(node.name, ())


class PlacementPolicy(abc.ABC):
    """Choose a node for one pod (or ``None`` when nothing fits).

    Subclasses must be deterministic pure functions of
    ``(pod, nodes, context)`` -- the scheduler owns *when* placement is
    attempted and performs the allocation; the policy only ranks nodes.
    """

    #: Registry/reporting name (kebab-case, stable across refactors).
    name: str = "placement"

    #: Human-readable explanation stamped on successful decisions.
    reason: str = "placed"

    #: Whether the policy reads :class:`PlacementContext` (co-residency /
    #: interference).  The simulator skips building the context for policies
    #: that only look at free capacity, keeping the default path as cheap as
    #: the pre-refactor schedulers.
    needs_context: bool = False

    @abc.abstractmethod
    def select(
        self,
        pod: Pod,
        nodes: Sequence[Node],
        context: Optional[PlacementContext] = None,
    ) -> Optional[Node]:
        """The node ``pod`` should be placed on, or ``None`` when none fits."""


@dataclass(frozen=True)
class FirstFit(PlacementPolicy):
    """The first node in cluster order with room (the pre-refactor default).

    This is what every scheduler did before placement became pluggable:
    BanditWare controls the *resource request*, not the node choice, so the
    baseline placement's only job is to find capacity.  The placement parity
    suite pins that this policy reproduces the pre-refactor engine bit for
    bit under every scheduler.
    """

    name = "first-fit"
    reason = "first node with sufficient capacity"

    def select(
        self,
        pod: Pod,
        nodes: Sequence[Node],
        context: Optional[PlacementContext] = None,
    ) -> Optional[Node]:
        for node in nodes:
            if node.fits(pod.request):
                return node
        return None


@dataclass(frozen=True)
class BestFit(PlacementPolicy):
    """The feasible node that leaves the least spare capacity.

    Classic best-fit bin packing: it keeps large contiguous capacity free
    for large requests, which reduces head-of-line blocking when workloads
    with mixed resource requests share the cluster.

    Tie-breaking is explicitly deterministic: candidates sort on the key
    ``(cpu_leftover, memory_leftover, node.name)``, so equal-fit nodes are
    always resolved by name regardless of cluster order -- pinned by a
    regression test so placement refactors cannot silently reorder them.
    """

    name = "best-fit"
    reason = "best-fit on remaining CPU"

    def select(
        self,
        pod: Pod,
        nodes: Sequence[Node],
        context: Optional[PlacementContext] = None,
    ) -> Optional[Node]:
        feasible = [n for n in nodes if n.fits(pod.request)]
        if not feasible:
            return None
        return min(
            feasible,
            key=lambda n: (
                n.free_cpus - pod.request.cpus,
                n.free_memory_gb - pod.request.memory_gb,
                n.name,
            ),
        )


@dataclass(frozen=True)
class WorstFit(PlacementPolicy):
    """Spread: the feasible node with the *most* spare capacity.

    Worst-fit is the load-spreading heuristic: new pods land on the
    emptiest node, so co-residency (and therefore interference) is
    minimised without consulting the interference model at all.  Ties are
    broken by node name, mirroring :class:`BestFit`.
    """

    name = "spread"
    reason = "worst-fit spread onto the emptiest node"

    def select(
        self,
        pod: Pod,
        nodes: Sequence[Node],
        context: Optional[PlacementContext] = None,
    ) -> Optional[Node]:
        feasible = [n for n in nodes if n.fits(pod.request)]
        if not feasible:
            return None
        return min(
            feasible,
            key=lambda n: (
                -(n.free_cpus - pod.request.cpus),
                -(n.free_memory_gb - pod.request.memory_gb),
                n.name,
            ),
        )


@dataclass(frozen=True)
class Pack(PlacementPolicy):
    """Consolidate: the most-utilised feasible node.

    The opposite of :class:`WorstFit`: keep filling the busiest node so the
    rest of the cluster stays empty (the shape autoscaler scale-*down*
    likes, and the shape that maximises noisy-neighbour interference --
    benchmarks use it as the adversarial baseline for
    :class:`LeastSlowdown`).  Utilisation is the node's bottleneck allocated
    fraction across resource dimensions; ties fall back to cluster order,
    so an empty cluster packs exactly like :class:`FirstFit`.
    """

    name = "pack"
    reason = "packed onto the most-utilised feasible node"

    def select(
        self,
        pod: Pod,
        nodes: Sequence[Node],
        context: Optional[PlacementContext] = None,
    ) -> Optional[Node]:
        best: Optional[Node] = None
        best_key = None
        for index, node in enumerate(nodes):
            if not node.fits(pod.request):
                continue
            key = (-max(node.utilisation().values()), index)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best


@dataclass(frozen=True)
class LeastSlowdown(PlacementPolicy):
    """Interference-aware placement: minimise collective post-placement slowdown.

    For every feasible node the policy asks the cluster's active
    :class:`~repro.cluster.interference.InterferenceModel` a hypothetical
    question: *if this pod landed here, how fast would it run, and how much
    would it slow down the node's current residents?*  One
    ``node_speeds(node, [pod, *residents])`` call answers it, and the node's
    score is the summed **excess** slowdown (``1 / speed - 1``, zero at full
    speed) of the pod **and** every prospective co-resident after placement,
    added in that order; the lowest score wins, with ties falling back to
    cluster order.  Scoring the excess rather than the raw factor matters:
    it ranks nodes purely by the interference the placement would cause,
    with no constant per-resident term, so under
    :class:`~repro.cluster.interference.NoInterference` every node scores
    0.0 and the choice degenerates to first-fit exactly -- occupied or not.

    Because interference models weight nodes by
    :attr:`~repro.cluster.node.Node.interference_class`, this policy also
    steers pods toward quiet hardware tiers on heterogeneous clusters.
    """

    name = "least-slowdown"
    reason = "least post-placement slowdown for pod and co-residents"
    needs_context = True

    def select(
        self,
        pod: Pod,
        nodes: Sequence[Node],
        context: Optional[PlacementContext] = None,
    ) -> Optional[Node]:
        context = context if context is not None else PlacementContext()
        model = context.interference
        best: Optional[Node] = None
        best_key = None
        for index, node in enumerate(nodes):
            if not node.fits(pod.request):
                continue
            # The excess slowdown is summed left to right, pod first, so the
            # float total (and with it every tie-break) is reproducible.
            cost = 0.0
            for speed in model.node_speeds(node, [pod, *context.residents(node)]):
                cost += 1.0 / speed - 1.0
            key = (cost, index)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best


#: Placement registry: kebab-case name -> policy factory.  ``spread`` is the
#: canonical name of :class:`WorstFit` (the CLI vocabulary); ``worst-fit``
#: is accepted as an alias.
PLACEMENT_POLICIES: Dict[str, Callable[[], PlacementPolicy]] = {
    "first-fit": FirstFit,
    "best-fit": BestFit,
    "spread": WorstFit,
    "worst-fit": WorstFit,
    "pack": Pack,
    "least-slowdown": LeastSlowdown,
}


def build_placement(name: str) -> PlacementPolicy:
    """Build a registered placement policy by name."""
    if name not in PLACEMENT_POLICIES:
        raise KeyError(
            f"unknown placement policy {name!r}; available: {sorted(PLACEMENT_POLICIES)}"
        )
    return PLACEMENT_POLICIES[name]()
