"""Autoscaling node pools: elastic capacity with provisioning delay.

Real clusters are not fixed-size: when pods queue for capacity, a cluster
autoscaler provisions additional nodes (after a provisioning delay -- VM
boot, image pull, join), and drains idle ones to save cost.  The
:class:`AutoscalingNodePool` describes one such elastic pool attached to a
:class:`~repro.cluster.simulator.ClusterSimulator`:

* **Scale-up** -- whenever a pending pod cannot be placed on any current node
  (nor on capacity already being provisioned), a new node from the pool's
  template is requested.  The node joins the cluster ``provision_delay_seconds``
  later, via a ``node_provisioned`` event in the simulator's main event queue
  -- so :meth:`~repro.cluster.simulator.ClusterSimulator.peek_next_event_time`
  and :meth:`~repro.cluster.simulator.ClusterSimulator.run_until` see
  scale-up boundaries exactly like pod events and can never step over one.
* **Scale-down** -- a pool node that has been idle (no allocations) for
  ``scale_down_idle_seconds`` is drained and removed.  Base nodes (the ones
  the cluster was constructed with) are never removed.

The cost of elasticity is accounted through
:func:`~repro.hardware.node_occupancy_cost`: each pool node is charged for
its full provisioned lifetime (from join to drain), whether busy or idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.node import Node

__all__ = ["AutoscalingNodePool", "ScaleEvent"]


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling action, for reports and tests.

    ``kind`` is ``"scale_up_requested"``, ``"node_provisioned"`` or
    ``"node_drained"``; ``time`` is the simulation time it happened.
    """

    time: float
    kind: str
    node_name: str


@dataclass(frozen=True)
class AutoscalingNodePool:
    """Description of an elastic node pool.

    Parameters
    ----------
    node_cpus, node_memory_gb, node_gpus:
        Capacity of each provisioned node (the pool is homogeneous, like a
        cloud instance group).
    max_nodes:
        Upper bound on pool nodes alive or in flight at once.
    provision_delay_seconds:
        Time between requesting a node and it joining the cluster.
    scale_down_idle_seconds:
        How long a pool node may sit empty before it is drained.  ``None``
        disables scale-down.
    name_prefix:
        Prefix for provisioned node names (``<prefix>-1``, ``<prefix>-2``...).
    node_interference_class:
        Interference class stamped on every provisioned node (see
        :attr:`~repro.cluster.node.Node.interference_class`).  Cloud pools
        are often the noisy tier -- interference models can weight them
        accordingly.
    """

    node_cpus: int
    node_memory_gb: float
    node_gpus: int = 0
    max_nodes: int = 4
    provision_delay_seconds: float = 60.0
    scale_down_idle_seconds: Optional[float] = 600.0
    name_prefix: str = "autoscale"
    node_interference_class: str = "standard"

    def __post_init__(self) -> None:
        # Pool nodes follow Node's capacity rules; check them before the
        # first node is provisioned mid-run.
        self.template_node("template")
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.provision_delay_seconds < 0:
            raise ValueError(
                f"provision_delay_seconds must be non-negative, got {self.provision_delay_seconds}"
            )
        if self.scale_down_idle_seconds is not None and self.scale_down_idle_seconds <= 0:
            raise ValueError(
                f"scale_down_idle_seconds must be positive, got {self.scale_down_idle_seconds}"
            )

    # ------------------------------------------------------------------ #
    def template_node(self, name: str) -> Node:
        """A fresh pool node with this pool's capacity.

        The single construction site for provisioned nodes: capacity fields
        added to the pool template cannot silently diverge from the nodes
        the simulator actually adds.
        """
        return Node(
            name,
            cpus=self.node_cpus,
            memory_gb=self.node_memory_gb,
            gpus=self.node_gpus,
            labels={"pool": self.name_prefix},
            interference_class=self.node_interference_class,
        )

    def fits_template(self, cpus: int, memory_gb: float, gpus: int) -> bool:
        """Whether a request fits one (empty) pool node."""
        return (
            cpus <= self.node_cpus
            and memory_gb <= self.node_memory_gb
            and gpus <= self.node_gpus
        )


class AutoscalerState:
    """Mutable autoscaler bookkeeping owned by one :class:`ClusterSimulator`.

    Tracks in-flight provisions, node lifetimes (for cost accounting) and the
    scale-event log.  The simulator drives it; it never touches the event
    queue itself.
    """

    def __init__(self, pool: AutoscalingNodePool):
        self.pool = pool
        self.in_flight = 0
        self.alive = 0
        self._counter = 0
        #: provision time per live pool node, for lifetime cost on drain
        self.provisioned_at: Dict[str, float] = {}
        #: time each pool node last became empty (drain eligibility)
        self.idle_since: Dict[str, float] = {}
        #: completed node lifetimes as (node_name, provisioned_at, drained_at)
        self.lifetimes: List[tuple] = []
        self.events: List[ScaleEvent] = []

    @property
    def total(self) -> int:
        """Pool nodes alive or being provisioned."""
        return self.alive + self.in_flight

    def next_name(self) -> str:
        self._counter += 1
        return f"{self.pool.name_prefix}-{self._counter}"
