"""A generic linear-runtime workload for property tests and ablations.

Algorithm 1 assumes the runtime of a workflow on hardware ``H_i`` follows a
linear model ``R(H_i, x) = w_iᵀ x + b_i``.  :class:`LinearRuntimeWorkload`
realises exactly that assumption with user-supplied (or randomly drawn)
coefficients, so property-based tests can verify that the bandit recovers
known ground truth and ablation benchmarks can sweep how violations of the
assumption (extra noise, curvature) degrade accuracy.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.hardware import HardwareCatalog, HardwareConfig
from repro.utils.numeric import ordered_sum
from repro.utils.rng import SeedLike, as_generator
from repro.workloads.base import WorkloadModel

__all__ = ["LinearRuntimeWorkload"]


class LinearRuntimeWorkload(WorkloadModel):
    """A workload whose expected runtime is exactly linear in its features.

    Parameters
    ----------
    feature_ranges:
        ``{feature_name: (low, high)}`` -- features are sampled uniformly in
        their range.
    coefficients:
        ``{hardware_name: (w, b)}`` where ``w`` maps feature names to slopes
        and ``b`` is the intercept.  Every hardware the workload will run on
        must have an entry.
    noise_sigma:
        Homoscedastic runtime noise standard deviation (seconds).
    nonlinearity:
        Optional callable applied to the linear prediction, e.g. to study
        model mis-specification.  Defaults to identity.
    name:
        Application name recorded in run records.
    """

    def __init__(
        self,
        feature_ranges: Mapping[str, Tuple[float, float]],
        coefficients: Mapping[str, Tuple[Mapping[str, float], float]],
        noise_sigma: float = 1.0,
        nonlinearity: Optional[Callable[[float], float]] = None,
        name: str = "synthetic-linear",
    ):
        if not feature_ranges:
            raise ValueError("feature_ranges must contain at least one feature")
        for fname, (lo, hi) in feature_ranges.items():
            if not lo <= hi:
                raise ValueError(f"feature {fname!r} has empty range ({lo}, {hi})")
        if not coefficients:
            raise ValueError("coefficients must contain at least one hardware entry")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self._feature_ranges = {k: (float(lo), float(hi)) for k, (lo, hi) in feature_ranges.items()}
        self._coefficients: Dict[str, Tuple[Dict[str, float], float]] = {}
        for hw_name, (w, b) in coefficients.items():
            missing = set(self._feature_ranges) - set(w)
            if missing:
                raise ValueError(
                    f"coefficients for {hw_name!r} missing features {sorted(missing)}"
                )
            self._coefficients[hw_name] = ({k: float(v) for k, v in w.items()}, float(b))
        self.noise_sigma = float(noise_sigma)
        # ``None`` means identity; storing it (instead of a lambda) keeps the
        # workload picklable, which the parallel evaluation engine relies on.
        self.nonlinearity = nonlinearity
        self.name = name

    # ------------------------------------------------------------------ #
    @classmethod
    def random(
        cls,
        catalog: HardwareCatalog,
        n_features: int = 3,
        seed: SeedLike = None,
        noise_sigma: float = 1.0,
        slope_scale: float = 5.0,
        intercept_scale: float = 50.0,
        feature_high: float = 100.0,
        name: str = "synthetic-linear",
    ) -> "LinearRuntimeWorkload":
        """Draw a random linear workload whose arms genuinely differ.

        Slopes are positive (bigger inputs run longer) and each hardware gets
        its own slope/intercept draw, so with high probability different
        regions of the feature space prefer different hardware.
        """
        rng = as_generator(seed)
        feature_names = [f"x{i}" for i in range(n_features)]
        feature_ranges = {name_: (0.0, feature_high) for name_ in feature_names}
        coefficients = {}
        for hw in catalog:
            w = {name_: float(rng.uniform(0.1, slope_scale)) for name_ in feature_names}
            b = float(rng.uniform(0.0, intercept_scale))
            coefficients[hw.name] = (w, b)
        return cls(
            feature_ranges=feature_ranges,
            coefficients=coefficients,
            noise_sigma=noise_sigma,
            name=name,
        )

    # ------------------------------------------------------------------ #
    @property
    def feature_names(self) -> List[str]:
        return list(self._feature_ranges.keys())

    @property
    def hardware_names(self) -> List[str]:
        """Hardware names this workload has coefficients for."""
        return list(self._coefficients.keys())

    def sample_features(self, rng: np.random.Generator) -> Dict[str, float]:
        return {
            name: float(rng.uniform(lo, hi))
            for name, (lo, hi) in self._feature_ranges.items()
        }

    def expected_runtime(self, features: Dict[str, float], hardware: HardwareConfig) -> float:
        if hardware.name not in self._coefficients:
            raise KeyError(
                f"no coefficients for hardware {hardware.name!r}; "
                f"known: {self.hardware_names}"
            )
        w, b = self._coefficients[hardware.name]
        value = b + ordered_sum(w[name] * float(features[name]) for name in self.feature_names)
        if self.nonlinearity is not None:
            value = self.nonlinearity(value)
        return max(float(value), 0.0)

    def noise_scale(self, expected: float) -> float:
        return self.noise_sigma

    # ------------------------------------------------------------------ #
    def true_coefficients(self, hardware: HardwareConfig) -> Dict[str, float]:
        """Ground-truth ``w``/``b`` for ``hardware`` (prefixed like the fitted models)."""
        w, b = self._coefficients[hardware.name]
        out = {f"w_{k}": v for k, v in w.items()}
        out["b"] = b
        return out
