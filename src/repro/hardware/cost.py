"""Resource-efficiency scoring used by tolerant selection.

Algorithm 1's exploitation branch does not simply pick the estimated-fastest
hardware: it builds the tolerance threshold ``R_limit`` and, among all
configurations whose estimated runtime is within the threshold, chooses "the
one with the most resource efficiency".  The paper does not pin down a single
formula; this module fixes the intuitive reading -- fewer CPUs and less
memory are "cheaper", so among near-equally-fast configurations the smallest
allocation wins.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.hardware.catalog import HardwareCatalog
from repro.hardware.config import HardwareConfig

__all__ = ["footprint", "occupancy_cost", "node_occupancy_cost", "rank_by_efficiency"]


def footprint(cpus: float, memory_gb: float, gpus: float) -> float:
    """A scalar "amount of resources" score (lower = more efficient to hold).

    Memory counts in CPU-equivalents (8 GiB ~ 1 CPU) and a GPU as 8
    CPU-equivalents, which reproduces the orderings implied by the paper
    (H0=(2,16) is the most efficient NDP configuration, H1=(3,24) the middle
    one, H2=(4,16) uses the most CPU).  The same score prices a pod's
    allocation and a node's provisioned capacity, so autoscaling cost is
    directly comparable to the occupancy cost of the work it carried.
    """
    return 1.0 * cpus + 0.125 * memory_gb + 8.0 * gpus


def occupancy_cost(config: HardwareConfig, seconds: float) -> float:
    """A run's footprint integrated over its duration (resource-seconds)."""
    if seconds < 0:
        raise ValueError(f"seconds must be non-negative, got {seconds}")
    return footprint(config.cpus, config.memory_gb, config.gpus) * seconds


def node_occupancy_cost(cpus: int, memory_gb: float, seconds: float, gpus: int = 0) -> float:
    """A node's capacity footprint integrated over its provisioned lifetime.

    Elastic capacity is charged for the full provision-to-drain interval in
    the same resource-second units as :func:`occupancy_cost`.
    """
    if seconds < 0:
        raise ValueError(f"seconds must be non-negative, got {seconds}")
    return footprint(cpus, memory_gb, gpus) * seconds


def rank_by_efficiency(catalog: HardwareCatalog | Sequence[HardwareConfig]) -> List[HardwareConfig]:
    """All configurations sorted from most to least resource-efficient.

    Ties break toward fewer CPUs, then less memory, then name, so the order
    is deterministic.
    """
    return sorted(
        catalog,
        key=lambda c: (footprint(c.cpus, c.memory_gb, c.gpus), c.cpus, c.memory_gb, c.name),
    )
