"""Pluggable interference models: co-located pods slow each other down.

The paper's datasets record each run executing *alone* on its hardware, but a
shared cluster rarely grants that luxury: co-resident tenants compete for the
caches, memory bandwidth and I/O paths that resource *requests* do not
reserve.  This module describes that contention as a **progress rate**: a pod
holding a node with co-residents advances its work at ``speed`` work-seconds
per wall-clock second, where ``speed`` is 1.0 alone and drops as neighbours
pile on.

The :class:`~repro.cluster.simulator.ClusterSimulator` consults the model on
every topology change (pod start/finish, preemption, autoscale provision or
drain), re-integrates each running pod's progress at its previous rate, and
moves its tentative finish to the new rate -- see the simulator's
progress-based execution engine.
:class:`~repro.cluster.placement.LeastSlowdown` asks the same model about
hypothetical placements.  Models therefore only answer one pure question,
:meth:`InterferenceModel.node_speeds`: *given this node and its residents,
how fast does each of them run right now?*  The built-in models answer it
in plain Python from node-wide request totals: no reschedule in a registered
scenario or benchmark workload sees more than 6 residents, and at that size
one NumPy call costs more than the arithmetic.

Invariants every model must satisfy (validated by the simulator):

* one rate per resident, in the residents' order;
* ``0 < speed <= 1`` -- interference can only slow a pod down;
* a pod running **alone** must report ``speed == 1.0`` exactly, so
  contention-free executions reproduce the paper's per-run runtimes
  bit-for-bit (this is what keeps the zero-contention parity suite exact
  even under non-null models).

All models are frozen dataclasses, so scenarios embedding them stay
picklable and sweep-able over process pools.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from repro.cluster.node import Node
from repro.cluster.pod import Pod
from repro.utils.numeric import ordered_sum
from repro.utils.validation import check_non_negative

__all__ = [
    "InterferenceModel",
    "NoInterference",
    "LinearSlowdown",
    "CapacityContention",
]


class InterferenceModel(abc.ABC):
    """How co-located pods perturb each other's progress rate.

    :meth:`node_speeds` is the whole interface: a third-party model
    subclasses this and implements that one method.
    """

    @abc.abstractmethod
    def node_speeds(self, node: Node, pods: Sequence[Pod]) -> List[float]:
        """Progress rates of ``pods``, the residents of ``node``.

        Returns one rate per pod, in the order of ``pods``: work-seconds
        completed per wall-clock second, each in ``(0, 1]``.  A pod running
        alone (``len(pods) == 1``) must get exactly ``1.0``.
        """


@dataclass(frozen=True)
class NoInterference(InterferenceModel):
    """Co-located pods do not perturb each other (the pre-interference engine).

    Every pod always runs at full speed, so observed runtimes equal the
    drawn ground truth bit-for-bit -- the parity suite pins this.
    """

    def node_speeds(self, node: Node, pods: Sequence[Pod]) -> List[float]:
        return [1.0] * len(pods)


@dataclass(frozen=True)
class LinearSlowdown(InterferenceModel):
    """Slowdown growing linearly with co-resident utilisation.

    ``speed = 1 / (1 + alpha_node * u)`` where ``u`` is the co-residents'
    bottleneck utilisation fraction of the node: the *other* residents'
    summed request over the node's capacity, taking the maximum across
    resource dimensions (CPU, memory, and GPU when the node has GPUs), since
    the most contended shared resource is the one that hurts.  ``alpha`` is
    the slowdown per unit of neighbour utilisation: with ``alpha=0.5`` a pod
    sharing a node whose other tenants fill 80% of it runs at
    ``1/1.4 ~ 71%`` speed.

    Heterogeneous clusters can weight the slowdown per node tier:
    ``class_weights`` maps a node's
    :attr:`~repro.cluster.node.Node.interference_class` to a multiplier on
    ``alpha`` (``alpha_node = alpha * weight``; classes absent from the map
    weigh 1.0).  A NUMA-partitioned tier might weigh 0.25 while an
    oversubscribed-I/O tier weighs 2.5 -- same request, very different
    noisy-neighbour damage, which is exactly what interference-aware
    placement exploits.  The solo invariant is unaffected: ``u = 0`` alone,
    so every class runs solo pods at full speed.

    This is the classic linear interference fit used for co-located
    batch workloads: cheap, monotone, and exact in the solo case.
    """

    alpha: float = 0.5
    #: Optional per-interference-class multiplier on ``alpha``.  Accepts a
    #: mapping (or an items tuple) at construction; *stored* normalised as a
    #: sorted tuple of ``(class, weight)`` pairs so the frozen dataclass
    #: stays hashable and picklable -- read it back as a mapping via
    #: :attr:`weight_map`.
    class_weights: Optional[Mapping[str, float]] = None

    def __post_init__(self) -> None:
        check_non_negative(self.alpha, "alpha")
        if self.class_weights is not None:
            items = tuple(
                sorted((str(k), float(v)) for k, v in dict(self.class_weights).items())
            )
            for name, weight in items:
                check_non_negative(weight, f"class weight for {name!r}")
            object.__setattr__(self, "class_weights", items)
            object.__setattr__(self, "_weight_map", dict(items))

    @property
    def weight_map(self) -> Mapping[str, float]:
        """The per-class multipliers as a plain mapping (empty when unset)."""
        if self.class_weights is None:
            return {}
        return dict(getattr(self, "_weight_map", dict(self.class_weights)))

    def node_alpha(self, node: Node) -> float:
        """The effective slowdown coefficient for one node's tier."""
        if self.class_weights is None:
            return self.alpha
        return self.alpha * getattr(self, "_weight_map", {}).get(
            node.interference_class, 1.0
        )

    def node_speeds(self, node: Node, pods: Sequence[Pod]) -> List[float]:
        """``1 / (1 + alpha_node * u)`` per resident, ``u`` its co-residents' share.

        A pod's co-resident total is the node total minus its own request
        (exact for the integer-valued requests catalogs use).  A lone pod
        gets exactly 1.0.
        """
        if len(pods) < 2:
            return [1.0] * len(pods)
        alpha = self.node_alpha(node)
        requests = [pod.request for pod in pods]
        cpus = sum(r.cpus for r in requests)
        memory = ordered_sum(r.memory_gb for r in requests)
        gpus = sum(r.gpus for r in requests)
        speeds = []
        for r in requests:
            u = max((cpus - r.cpus) / node.cpus, (memory - r.memory_gb) / node.memory_gb)
            if node.gpus:
                u = max(u, (gpus - r.gpus) / node.gpus)
            speeds.append(1.0 / (1.0 + alpha * u))
        return speeds


@dataclass(frozen=True)
class CapacityContention(InterferenceModel):
    """Per-resource contention: shared capacity delivers less than nominal.

    Resource *requests* reserve cores and bytes, but the shared paths behind
    them (last-level cache, memory bandwidth, NIC) do not scale to the full
    nominal capacity once multiple tenants run side by side.  This model
    says each resource dimension of a **shared** node only sustains a
    ``usable_fraction`` of its nominal capacity: when the residents'
    combined allocation of resource ``r`` exceeds
    ``usable_fraction_r * capacity_r``, every resident is throttled by the
    ratio, and a pod's speed is the factor of its most-contended resource::

        speed = min over r of min(1, usable_r / allocated_r)

    A pod running alone gets the whole machine (no sharing, no throttle), so
    solo executions stay exact.

    Parameters
    ----------
    cpu_fraction, memory_fraction, gpu_fraction:
        Usable fraction of each dimension's nominal capacity under sharing,
        in ``(0, 1]``.  The defaults model CPU as the contended path
        (caches/bandwidth) while memory capacity and GPUs partition cleanly.
    """

    cpu_fraction: float = 0.75
    memory_fraction: float = 1.0
    gpu_fraction: float = 1.0

    def __post_init__(self) -> None:
        for name in ("cpu_fraction", "memory_fraction", "gpu_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")

    def node_speeds(self, node: Node, pods: Sequence[Pod]) -> List[float]:
        """Every resident gets the shared throttle of the node-wide totals.

        The totals include each pod itself, so all residents share one
        rate.  A lone pod gets the whole machine: exactly 1.0.
        """
        if len(pods) < 2:
            return [1.0] * len(pods)
        requests = [pod.request for pod in pods]
        factors = []
        for capacity, fraction, total in (
            (node.cpus, self.cpu_fraction, sum(r.cpus for r in requests)),
            (
                node.memory_gb,
                self.memory_fraction,
                ordered_sum(r.memory_gb for r in requests),
            ),
            (node.gpus, self.gpu_fraction, sum(r.gpus for r in requests)),
        ):
            if capacity and total:
                factors.append(min(1.0, (fraction * capacity) / total))
        return [min(factors) if factors else 1.0] * len(pods)
