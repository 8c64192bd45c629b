"""Immutable description of a single hardware configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.utils.validation import check_count, check_non_negative, check_positive

__all__ = ["HardwareConfig"]


@dataclass(frozen=True, order=False)
class HardwareConfig:
    """One hardware (Kubernetes resource) configuration.

    The paper describes configurations as ``H_n = (#cpus, memory)``; GPUs and
    clock speed are carried for the future-work extensions (Section 5 mentions
    incorporating GPU information) and for the cluster simulator's capacity
    accounting.

    Parameters
    ----------
    name:
        Identifier such as ``"H0"``.
    cpus:
        Number of CPU cores allocated to the application (an integer >= 1).
    memory_gb:
        Memory allocation in GiB (finite, positive).
    gpus:
        Number of GPUs, an integer >= 0 (0 for every configuration in the
        paper).
    cpu_clock_ghz:
        Nominal per-core clock, used only by workload models that scale
        runtime with single-core speed.
    hourly_cost:
        Relative cost per hour of occupation; used for cost reporting in the
        examples.  When not supplied it defaults to a simple linear function
        of CPU and memory so catalogs remain usable without price sheets.
    labels:
        Arbitrary metadata (e.g. Kubernetes node labels, region).
    """

    name: str
    cpus: int
    memory_gb: float
    gpus: int = 0
    cpu_clock_ghz: float = 2.5
    hourly_cost: Optional[float] = None
    labels: Dict[str, Any] = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("hardware configuration requires a non-empty name")
        object.__setattr__(self, "cpus", check_count(self.cpus, "cpus"))
        object.__setattr__(self, "gpus", check_count(self.gpus, "gpus", minimum=0))
        object.__setattr__(self, "memory_gb", check_positive(self.memory_gb, "memory_gb"))
        object.__setattr__(
            self, "cpu_clock_ghz", check_positive(self.cpu_clock_ghz, "cpu_clock_ghz")
        )
        if self.hourly_cost is not None:
            check_non_negative(self.hourly_cost, "hourly_cost")

    # ------------------------------------------------------------------ #
    @property
    def cost_per_hour(self) -> float:
        """Hourly cost; defaults to ``0.05·cpus + 0.01·memory_gb + 0.5·gpus``."""
        if self.hourly_cost is not None:
            return float(self.hourly_cost)
        return 0.05 * self.cpus + 0.01 * self.memory_gb + 0.5 * self.gpus

    @property
    def compute_capacity(self) -> float:
        """Aggregate compute throughput proxy: ``cpus * cpu_clock_ghz``."""
        return self.cpus * self.cpu_clock_ghz

    def as_tuple(self) -> tuple:
        """The paper's ``(#cpus, memory)`` shorthand."""
        return (self.cpus, self.memory_gb)

    def to_dict(self) -> Dict[str, Any]:
        """Serialisable dictionary representation."""
        return {
            "name": self.name,
            "cpus": self.cpus,
            "memory_gb": self.memory_gb,
            "gpus": self.gpus,
            "cpu_clock_ghz": self.cpu_clock_ghz,
            "hourly_cost": self.hourly_cost,
            "labels": dict(self.labels),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HardwareConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            cpus=data["cpus"],
            memory_gb=data["memory_gb"],
            gpus=data.get("gpus", 0),
            cpu_clock_ghz=data.get("cpu_clock_ghz", 2.5),
            hourly_cost=data.get("hourly_cost"),
            labels=dict(data.get("labels", {})),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        gpu = f", {self.gpus} GPU" if self.gpus else ""
        return f"{self.name}({self.cpus} CPU, {self.memory_gb:g} GiB{gpu})"
