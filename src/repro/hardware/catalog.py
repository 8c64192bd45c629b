"""Ordered catalogs of hardware configurations, including the paper's sets."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.hardware.config import HardwareConfig

__all__ = [
    "HardwareCatalog",
    "ndp_catalog",
    "synthetic_catalog",
    "matmul_catalog",
]


class HardwareCatalog:
    """An ordered, indexable collection of :class:`HardwareConfig`.

    The catalog defines the bandit's arm space: arm index ``i`` always refers
    to the ``i``-th configuration in insertion order, so policies can work
    with integer arms while the rest of the system speaks in configurations.

    Parameters
    ----------
    configs:
        Configurations in arm order.  Names must be unique.
    """

    def __init__(self, configs: Iterable[HardwareConfig]):
        self._configs: List[HardwareConfig] = list(configs)
        if not self._configs:
            raise ValueError("a hardware catalog requires at least one configuration")
        names = [c.name for c in self._configs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate hardware names in catalog: {dupes}")
        self._by_name: Dict[str, int] = {c.name: i for i, c in enumerate(self._configs)}

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self) -> Iterator[HardwareConfig]:
        return iter(self._configs)

    def __contains__(self, item: Union[str, HardwareConfig]) -> bool:
        if isinstance(item, HardwareConfig):
            return item.name in self._by_name
        return item in self._by_name

    def __getitem__(self, key: Union[int, str]) -> HardwareConfig:
        if isinstance(key, str):
            if key not in self._by_name:
                raise KeyError(f"no hardware named {key!r}; available: {self.names}")
            return self._configs[self._by_name[key]]
        return self._configs[int(key)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HardwareCatalog):
            return NotImplemented
        return self._configs == other._configs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HardwareCatalog({[c.name for c in self._configs]})"

    # ------------------------------------------------------------------ #
    @property
    def names(self) -> List[str]:
        """Configuration names in arm order."""
        return [c.name for c in self._configs]

    @property
    def configs(self) -> List[HardwareConfig]:
        """Configurations in arm order (a copy of the internal list)."""
        return list(self._configs)

    def index_of(self, item: Union[str, HardwareConfig]) -> int:
        """Return the arm index for a configuration or its name."""
        name = item.name if isinstance(item, HardwareConfig) else item
        if name not in self._by_name:
            raise KeyError(f"no hardware named {name!r}; available: {self.names}")
        return self._by_name[name]

    def subset(self, names: Sequence[str]) -> "HardwareCatalog":
        """A new catalog restricted to ``names`` (in the given order)."""
        return HardwareCatalog([self[name] for name in names])

    def add(self, config: HardwareConfig) -> "HardwareCatalog":
        """A new catalog with ``config`` appended."""
        return HardwareCatalog(self._configs + [config])

    def to_records(self) -> List[dict]:
        """Serialisable list of configuration dictionaries."""
        return [c.to_dict() for c in self._configs]

    @classmethod
    def from_records(cls, records: Sequence[dict]) -> "HardwareCatalog":
        """Inverse of :meth:`to_records`."""
        return cls([HardwareConfig.from_dict(r) for r in records])


# ---------------------------------------------------------------------- #
# Catalogs used by the paper's experiments
# ---------------------------------------------------------------------- #
def ndp_catalog() -> HardwareCatalog:
    """The National Data Platform triple used in Experiments 2 and 3 (BP3D).

    ``H0 = (2, 16), H1 = (3, 24), H2 = (4, 16)`` -- Section 4 of the paper.
    """
    return HardwareCatalog(
        [
            HardwareConfig("H0", cpus=2, memory_gb=16),
            HardwareConfig("H1", cpus=3, memory_gb=24),
            HardwareConfig("H2", cpus=4, memory_gb=16),
        ]
    )


def synthetic_catalog(n: int = 4) -> HardwareCatalog:
    """The synthetic catalog of Experiment 1 (Cycles).

    Four hardware settings whose runtime profiles present a *meaningful
    trade-off* (Figure 3 shows four clearly separated lines).  CPU counts
    double from 2 to 16 so per-task throughput differs by construction.
    """
    if n < 2:
        raise ValueError(f"a synthetic catalog needs at least 2 configurations, got {n}")
    configs = []
    for i in range(n):
        configs.append(
            HardwareConfig(
                name=f"H{i}",
                cpus=2 * (i + 1),
                memory_gb=8.0 * (i + 1),
                cpu_clock_ghz=2.5,
                labels={"tier": "synthetic"},
            )
        )
    return HardwareCatalog(configs)


def matmul_catalog() -> HardwareCatalog:
    """The five hardware options of Experiment 3 (matrix multiplication).

    The paper reports a random-guess accuracy of 0.2, i.e. five arms.  The
    configurations extend the NDP triple with two larger allocations so that
    the fully parallelised tiled kernel benefits from extra cores.
    """
    return HardwareCatalog(
        [
            HardwareConfig("H0", cpus=2, memory_gb=16),
            HardwareConfig("H1", cpus=3, memory_gb=24),
            HardwareConfig("H2", cpus=4, memory_gb=16),
            HardwareConfig("H3", cpus=6, memory_gb=32),
            HardwareConfig("H4", cpus=8, memory_gb=32),
        ]
    )
