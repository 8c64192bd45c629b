"""Hardware configuration models and catalogs.

BanditWare's "arms" are hardware configurations described in the paper as
``H_n = (#cpus, memory)``.  This package provides:

* :class:`~repro.hardware.config.HardwareConfig` -- an immutable description
  of one configuration (CPU count, memory, optional GPU count, per-core clock
  and an hourly cost used for reporting).
* :class:`~repro.hardware.catalog.HardwareCatalog` -- an ordered, indexable
  collection of configurations with the catalogs used by each experiment in
  the paper (the NDP triple ``H0=(2,16), H1=(3,24), H2=(4,16)``; the 4-way
  synthetic catalog of Experiment 1; the 5-way catalog of Experiment 3).
* :mod:`~repro.hardware.cost` -- resource-efficiency scoring used by the
  tolerant selection step of Algorithm 1 ("choose the one with the most
  resource efficiency" among near-fastest candidates).
"""

from repro.hardware.config import HardwareConfig
from repro.hardware.catalog import (
    HardwareCatalog,
    ndp_catalog,
    synthetic_catalog,
    matmul_catalog,
)
from repro.hardware.cost import (
    footprint,
    node_occupancy_cost,
    occupancy_cost,
    rank_by_efficiency,
)

__all__ = [
    "HardwareConfig",
    "HardwareCatalog",
    "ndp_catalog",
    "synthetic_catalog",
    "matmul_catalog",
    "footprint",
    "occupancy_cost",
    "node_occupancy_cost",
    "rank_by_efficiency",
]
