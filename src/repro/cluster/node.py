"""Cluster nodes with resource-capacity accounting.

A :class:`Node` is a plain capacity record: its allocation dict keeps the
resident pods in allocation order, and the allocation totals are maintained
incrementally (re-summing the dict on every read dominated the simulator's
feasibility checks).  The simulator, probes and autoscaler deficit bins all
use the same object; who runs where in a simulation is recorded once, in the
simulator's co-residency map.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hardware import HardwareConfig
from repro.utils.validation import check_count, check_positive

__all__ = ["Node", "InsufficientCapacityError"]


class InsufficientCapacityError(RuntimeError):
    """Raised when an allocation would exceed a node's free capacity."""


class Node:
    """One cluster node with CPU, memory and GPU capacity.

    Parameters
    ----------
    name:
        Node identifier (unique within a cluster).
    cpus, memory_gb, gpus:
        Total allocatable capacity: integer CPUs >= 1, finite positive GiB,
        integer GPUs >= 0.
    labels:
        Arbitrary metadata (zone, architecture, ...), mirroring Kubernetes
        node labels.
    interference_class:
        Hardware tier of the node's *shared* paths (NUMA layout, last-level
        cache, I/O fabric) -- e.g. ``"standard"`` (the default),
        ``"numa-quiet"``, ``"io-noisy"``.  Interference models may weight
        co-residency slowdown per class (see
        :class:`~repro.cluster.interference.LinearSlowdown`), and
        interference-aware placement steers pods toward quiet tiers.
    """

    def __init__(
        self,
        name: str,
        cpus: int,
        memory_gb: float,
        gpus: int = 0,
        labels: Optional[Dict[str, str]] = None,
        interference_class: str = "standard",
    ):
        if not name:
            raise ValueError("node requires a non-empty name")
        if not interference_class:
            raise ValueError(f"node {name!r} requires a non-empty interference class")
        self.name = name
        self.cpus = check_count(cpus, f"node {name!r} cpus")
        self.memory_gb = check_positive(memory_gb, f"node {name!r} memory_gb")
        self.gpus = check_count(gpus, f"node {name!r} gpus", minimum=0)
        self.labels = dict(labels or {})
        self.interference_class = str(interference_class)
        self._allocations: Dict[str, HardwareConfig] = {}
        # Incremental allocation totals: exact for the integer-valued
        # requests every catalog uses, and O(1) to read where the old
        # properties re-summed the dict on every access.
        self._alloc_cpus = 0
        self._alloc_memory_gb = 0.0
        self._alloc_gpus = 0

    # ------------------------------------------------------------------ #
    @property
    def allocated_cpus(self) -> int:
        return self._alloc_cpus

    @property
    def allocated_memory_gb(self) -> float:
        return self._alloc_memory_gb

    @property
    def allocated_gpus(self) -> int:
        return self._alloc_gpus

    @property
    def free_cpus(self) -> int:
        return self.cpus - self._alloc_cpus

    @property
    def free_memory_gb(self) -> float:
        return self.memory_gb - self._alloc_memory_gb

    @property
    def free_gpus(self) -> int:
        return self.gpus - self._alloc_gpus

    @property
    def allocations(self) -> Dict[str, HardwareConfig]:
        """Current allocations keyed by pod name."""
        return dict(self._allocations)

    def utilisation(self) -> Dict[str, float]:
        """Fractional utilisation of each resource dimension."""
        return {
            "cpus": self._alloc_cpus / self.cpus,
            "memory_gb": self._alloc_memory_gb / self.memory_gb,
            "gpus": (self._alloc_gpus / self.gpus) if self.gpus else 0.0,
        }

    # ------------------------------------------------------------------ #
    def fits(self, request: HardwareConfig) -> bool:
        """Whether ``request`` fits in the node's *free* capacity."""
        return (
            request.cpus <= self.cpus - self._alloc_cpus
            and request.memory_gb <= self.memory_gb - self._alloc_memory_gb
            and request.gpus <= self.gpus - self._alloc_gpus
        )

    def allocate(self, pod_name: str, request: HardwareConfig) -> None:
        """Reserve ``request`` for ``pod_name``.

        Raises
        ------
        InsufficientCapacityError
            If the request does not fit.
        ValueError
            If ``pod_name`` already holds an allocation on this node.
        """
        if pod_name in self._allocations:
            raise ValueError(f"pod {pod_name!r} already allocated on node {self.name!r}")
        if not self.fits(request):
            raise InsufficientCapacityError(
                f"node {self.name!r} cannot fit request {request.as_tuple()} "
                f"(free: {self.free_cpus} CPU, {self.free_memory_gb:g} GiB, {self.free_gpus} GPU)"
            )
        self._allocations[pod_name] = request
        self._alloc_cpus += request.cpus
        self._alloc_memory_gb += request.memory_gb
        self._alloc_gpus += request.gpus

    def clone(self) -> "Node":
        """An unallocated copy of this node (same capacity and labels).

        Used wherever pristine capacity matters -- feasibility probes and
        fresh per-run clusters -- so capacity fields added to ``Node`` later
        cannot silently be dropped by ad-hoc copy sites.
        """
        return Node(
            self.name,
            cpus=self.cpus,
            memory_gb=self.memory_gb,
            gpus=self.gpus,
            labels=self.labels,
            interference_class=self.interference_class,
        )

    def release(self, pod_name: str) -> HardwareConfig:
        """Release the allocation held by ``pod_name`` and return it."""
        if pod_name not in self._allocations:
            raise KeyError(f"pod {pod_name!r} holds no allocation on node {self.name!r}")
        request = self._allocations.pop(pod_name)
        self._alloc_cpus -= request.cpus
        self._alloc_memory_gb -= request.memory_gb
        self._alloc_gpus -= request.gpus
        return request

    @property
    def resident_pods(self) -> List[str]:
        """Names of pods currently allocated, in allocation order."""
        return list(self._allocations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Node({self.name!r}, cpus={self.allocated_cpus}/{self.cpus}, "
            f"mem={self.allocated_memory_gb:g}/{self.memory_gb:g}GiB, pods={len(self._allocations)})"
        )
