"""Abstractions shared by every application workload model."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.dataframe import DataFrame
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.utils.rng import SeedLike, as_generator

__all__ = ["WorkloadModel", "RunRecord", "TraceGenerator", "records_to_frame"]


@dataclass(frozen=True)
class RunRecord:
    """One observed application run.

    This is the unit of the run-history tables the paper's Figure 1 pipeline
    parses: workflow features, the hardware it ran on, and the observed
    runtime in seconds.
    """

    run_id: str
    application: str
    hardware: str
    runtime_seconds: float
    features: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.runtime_seconds < 0:
            raise ValueError(
                f"runtime_seconds must be non-negative, got {self.runtime_seconds}"
            )

    def to_row(self) -> Dict[str, Any]:
        """Flatten into a row dictionary suitable for a :class:`DataFrame`."""
        row: Dict[str, Any] = {
            "run_id": self.run_id,
            "application": self.application,
            "hardware": self.hardware,
            "runtime_seconds": self.runtime_seconds,
        }
        row.update({k: float(v) for k, v in self.features.items()})
        return row


def records_to_frame(records: Iterable[RunRecord]) -> DataFrame:
    """Convert run records into a columnar :class:`DataFrame`."""
    rows = [r.to_row() for r in records]
    if not rows:
        return DataFrame({})
    return DataFrame.from_records(rows)


class WorkloadModel(abc.ABC):
    """A feature sampler plus a per-hardware ground-truth runtime function.

    Subclasses describe one application.  They must expose:

    * :attr:`name` -- application name used in run records.
    * :attr:`feature_names` -- ordered feature names (the context ``x``).
    * :meth:`sample_features` -- draw one workflow's feature dictionary.
    * :meth:`expected_runtime` -- noise-free expected runtime of the workflow
      on a hardware configuration (seconds).
    * :meth:`noise_scale` -- standard deviation of the runtime noise, a
      function of the expected runtime.

    :meth:`observed_runtime` then draws a noisy, non-negative runtime, which
    is what the cluster simulator reports back to BanditWare.
    """

    #: application name; subclasses override.
    name: str = "workload"

    @property
    @abc.abstractmethod
    def feature_names(self) -> List[str]:
        """Ordered names of the context features."""

    @abc.abstractmethod
    def sample_features(self, rng: np.random.Generator) -> Dict[str, float]:
        """Draw the feature dictionary of one incoming workflow."""

    @abc.abstractmethod
    def expected_runtime(self, features: Dict[str, float], hardware: HardwareConfig) -> float:
        """Noise-free expected runtime (seconds) of ``features`` on ``hardware``."""

    def noise_scale(self, expected: float) -> float:
        """Standard deviation of the noise around an ``expected`` runtime; default 2% of it."""
        return 0.02 * expected

    # ------------------------------------------------------------------ #
    def observed_runtime(
        self,
        features: Dict[str, float],
        hardware: HardwareConfig,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """Draw a noisy runtime observation (never below 1% of the expectation)."""
        rng = as_generator(rng)
        mean = self.expected_runtime(features, hardware)
        sigma = self.noise_scale(mean)
        value = float(rng.normal(mean, sigma)) if sigma > 0 else mean
        return max(value, 0.01 * mean, 0.0)

    def best_hardware(
        self, features: Dict[str, float], catalog: HardwareCatalog
    ) -> HardwareConfig:
        """The configuration with the smallest *expected* runtime for ``features``."""
        return min(catalog, key=lambda hw: (self.expected_runtime(features, hw), hw.name))


class TraceGenerator:
    """Generate run-history tables from a workload model and hardware catalog.

    The paper starts from "a small dataset of application runs collected
    previously"; this class manufactures the equivalent synthetic dataset so
    experiments and benchmarks have a deterministic stand-in.

    Parameters
    ----------
    workload:
        The application model to sample from.
    catalog:
        Hardware configurations runs may be placed on.
    seed:
        Seed controlling both feature sampling and runtime noise.
    """

    def __init__(self, workload: WorkloadModel, catalog: HardwareCatalog, seed: SeedLike = None):
        self.workload = workload
        self.catalog = catalog
        self._rng = as_generator(seed)
        self._counter = 0

    def _next_id(self) -> str:
        self._counter += 1
        return f"{self.workload.name}-{self._counter:06d}"

    def generate_run(self, hardware: Optional[HardwareConfig] = None) -> RunRecord:
        """Sample one workflow and run it on ``hardware`` (random if omitted)."""
        features = self.workload.sample_features(self._rng)
        if hardware is None:
            hardware = self.catalog[int(self._rng.integers(len(self.catalog)))]
        runtime = self.workload.observed_runtime(features, hardware, self._rng)
        return RunRecord(
            run_id=self._next_id(),
            application=self.workload.name,
            hardware=hardware.name,
            runtime_seconds=runtime,
            features=features,
        )

    def generate_runs(self, n: int, hardware: Optional[HardwareConfig] = None) -> List[RunRecord]:
        """Generate ``n`` runs (each on ``hardware`` or on random hardware)."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return [self.generate_run(hardware) for _ in range(n)]

    def generate_grid(self, n_per_hardware: int) -> List[RunRecord]:
        """Generate ``n_per_hardware`` runs on *every* configuration.

        This mirrors how the paper collected its datasets: the same burn units
        / workflow sizes repeated "across all hardware configurations".
        """
        if n_per_hardware < 0:
            raise ValueError(f"n_per_hardware must be non-negative, got {n_per_hardware}")
        records: List[RunRecord] = []
        for _ in range(n_per_hardware):
            features = self.workload.sample_features(self._rng)
            for hw in self.catalog:
                runtime = self.workload.observed_runtime(features, hw, self._rng)
                records.append(
                    RunRecord(
                        run_id=self._next_id(),
                        application=self.workload.name,
                        hardware=hw.name,
                        runtime_seconds=runtime,
                        features=dict(features),
                    )
                )
        return records

    def generate_frame(self, n: int, grid: bool = False) -> DataFrame:
        """Generate a dataset and return it as a :class:`DataFrame`.

        With ``grid=True``, ``n`` is interpreted as runs *per hardware* and the
        same sampled workflows are repeated on every configuration.
        """
        records = self.generate_grid(n) if grid else self.generate_runs(n)
        return records_to_frame(records)
