"""The multi-application service behind the benchmark's ``service-zipf`` workload.

:func:`build_load_service` registers ``n_apps`` synthetic linear-runtime
applications (``app-00``, ``app-01``, ...) on one
:class:`~repro.integration.RecommendationService` and returns the service
with each application's workload model, which supplies request features and
observed runtimes.  :class:`ZipfianAppMix` gives the skewed application
popularity of a multi-tenant platform: a few applications take most of the
requests.  ``perfbench/``'s ``service-zipf`` drives this service with a
one-caller closed loop of ``submit_workflow``/``complete_workflow`` calls
and times each call on the wall clock: the service's measured serving rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.hardware import ndp_catalog
from repro.integration import RecommendationService
from repro.utils.validation import check_count, check_positive
from repro.workloads import LinearRuntimeWorkload

__all__ = ["ZipfianAppMix", "ServiceLoadConfig", "build_load_service"]


@dataclass(frozen=True)
class ZipfianAppMix:
    """Zipfian application popularity: app ``i`` has weight ``1/(i+1)^s``."""

    n_apps: int
    exponent: float = 1.1

    def __post_init__(self) -> None:
        check_count(self.n_apps, "n_apps")
        check_positive(self.exponent, "exponent")

    def weights(self) -> np.ndarray:
        raw = 1.0 / np.arange(1, self.n_apps + 1) ** self.exponent
        return raw / raw.sum()


@dataclass(frozen=True)
class ServiceLoadConfig:
    """Shape of the load service; ``zipf_exponent`` is its request skew."""

    n_apps: int = 32
    n_shards: int = 1
    n_features: int = 3
    seed: int = 0
    zipf_exponent: float = 0.9

    def __post_init__(self) -> None:
        check_count(self.n_apps, "n_apps")
        check_count(self.n_shards, "n_shards")
        check_count(self.n_features, "n_features")
        check_positive(self.zipf_exponent, "zipf_exponent")


def build_load_service(
    config: ServiceLoadConfig,
) -> Tuple[RecommendationService, Dict[str, LinearRuntimeWorkload]]:
    """A service with ``n_apps`` registered synthetic applications."""
    catalog = ndp_catalog()
    service = RecommendationService(
        catalog=catalog, seed=config.seed, n_shards=config.n_shards
    )
    workloads: Dict[str, LinearRuntimeWorkload] = {}
    for index in range(config.n_apps):
        name = f"app-{index:02d}"
        workload = LinearRuntimeWorkload.random(
            catalog, n_features=config.n_features, seed=1000 + index, name=name
        )
        workloads[name] = workload
        service.register_application(
            name, owner=f"tenant-{index:02d}", feature_names=workload.feature_names
        )
    return service, workloads
