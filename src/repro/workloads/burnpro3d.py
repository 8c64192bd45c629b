"""The BurnPro3D (BP3D) prescribed-fire simulation workload (Experiment 2).

BP3D runs QUIC-Fire style physics simulations over GeoJSON "burn units".  The
paper's Table 1 lists the workflow features considered; prior work cited by
the paper established that BP3D runtime is well approximated as a linear
combination of those features, and Experiment 2 shows two further properties
this model must reproduce:

* the three NDP hardware settings behave **nearly identically** -- the paper
  measures a hardware-selection accuracy of ~34 %, i.e. the random-guess rate
  for three arms, and explains that "running the application on any of the
  configurations results in nearly identical runtime";
* the data are **noisy**: the full 1316-sample fit has an RMSE of ~12 k
  seconds while runtimes reach ~70 k seconds (Figure 6), and 25-sample linear
  regressions achieve R² of only ~13 % on average (Figure 5).

The synthetic model therefore uses a single linear response dominated by the
burn-unit ``area`` and the simulation length, multiplies it by a per-hardware
factor within ±2 %, and adds heavy heteroscedastic noise.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.hardware import HardwareConfig
from repro.utils.numeric import ordered_sum
from repro.workloads.base import WorkloadModel

__all__ = ["BurnPro3DWorkload", "BP3D_FEATURES", "BP3D_FEATURE_DESCRIPTIONS"]


#: Feature names, in the order used as the bandit context (Table 1 of the paper).
BP3D_FEATURES: List[str] = [
    "surface_moisture",
    "canopy_moisture",
    "wind_direction",
    "wind_speed",
    "sim_time",
    "run_max_mem_rss_bytes",
    "area",
]

#: Human-readable descriptions copied from Table 1.
BP3D_FEATURE_DESCRIPTIONS: Dict[str, str] = {
    "surface_moisture": "surface fuel moisture",
    "canopy_moisture": "canopy fuel moisture",
    "wind_direction": "direction of surface winds",
    "wind_speed": "speed of surface winds",
    "sim_time": "maximum simulation steps allowed",
    "run_max_mem_rss_bytes": "maximum RSS bytes allowed per run",
    "area": "calculated regional surface area",
}


class BurnPro3DWorkload(WorkloadModel):
    """Synthetic BP3D runtime model over the Table 1 feature set.

    Parameters
    ----------
    n_burn_units:
        Number of distinct burn units (the paper uses six of varying sizes
        and regions); each unit has a characteristic area and the sampler
        picks a unit then perturbs weather inputs.
    area_range:
        Minimum and maximum burn-unit area in square metres.  Figure 6's
        x-axis spans roughly 1e6 to 2.5e6 m².
    hardware_spread:
        Maximum relative runtime difference between hardware settings.  The
        paper observes near-identical behaviour, so the default is 2 %.
    noise_seconds:
        Base standard deviation of the runtime noise (seconds); combined with
        a component proportional to the expected runtime it yields a full-fit
        RMSE on the order of 1e4 seconds, as in the paper.
    seed_units:
        Seed used only to place the burn-unit areas (kept separate from the
        sampling RNG so the same six units are used across experiments).
    """

    name = "burnpro3d"

    def __init__(
        self,
        n_burn_units: int = 6,
        area_range: tuple = (1.0e6, 2.5e6),
        hardware_spread: float = 0.02,
        noise_seconds: float = 9000.0,
        seed_units: int = 20240613,
    ):
        if n_burn_units < 1:
            raise ValueError(f"n_burn_units must be >= 1, got {n_burn_units}")
        lo, hi = float(area_range[0]), float(area_range[1])
        if not (0 < lo < hi):
            raise ValueError(f"area_range must satisfy 0 < lo < hi, got {area_range}")
        if hardware_spread < 0:
            raise ValueError("hardware_spread must be non-negative")
        if noise_seconds < 0:
            raise ValueError("noise_seconds must be non-negative")
        self.n_burn_units = int(n_burn_units)
        self.area_range = (lo, hi)
        self.hardware_spread = float(hardware_spread)
        self.noise_seconds = float(noise_seconds)
        unit_rng = np.random.default_rng(seed_units)
        # Six (by default) fixed burn units spanning the area range.
        self.burn_unit_areas = np.sort(unit_rng.uniform(lo, hi, size=self.n_burn_units))

        # Ground-truth linear coefficients (seconds per unit of each feature).
        # Runtime is dominated by area and sim_time; weather terms are small
        # modifiers; the memory cap barely matters.  With area up to 2.5e6 and
        # sim_time up to ~12000 steps the expected runtime tops out around
        # 6-7e4 seconds, matching Figure 6's y-axis.
        self._coefficients: Dict[str, float] = {
            "surface_moisture": -60.0,
            "canopy_moisture": -40.0,
            "wind_direction": 0.5,
            "wind_speed": 90.0,
            "sim_time": 1.8,
            "run_max_mem_rss_bytes": 2.0e-7,
            "area": 0.016,
        }
        self._intercept = 1200.0

    # ------------------------------------------------------------------ #
    @property
    def feature_names(self) -> List[str]:
        return list(BP3D_FEATURES)

    def sample_features(self, rng: np.random.Generator) -> Dict[str, float]:
        """Pick a burn unit, then draw weather and simulation settings."""
        area = float(self.burn_unit_areas[int(rng.integers(self.n_burn_units))])
        # small per-run jitter: re-gridding the same unit changes its
        # calculated surface area slightly.
        area *= float(rng.uniform(0.97, 1.03))
        return {
            "surface_moisture": float(rng.uniform(2.0, 20.0)),        # percent
            "canopy_moisture": float(rng.uniform(40.0, 140.0)),       # percent
            "wind_direction": float(rng.uniform(0.0, 360.0)),         # degrees
            "wind_speed": float(rng.uniform(1.0, 12.0)),              # m/s
            "sim_time": float(rng.integers(2000, 12001)),             # steps
            "run_max_mem_rss_bytes": float(rng.uniform(4.0e9, 3.2e10)),
            "area": area,
        }

    def _hardware_factor(self, features: Dict[str, float], hardware: HardwareConfig) -> float:
        """Per-hardware, per-workflow runtime multiplier within ``1 ± hardware_spread``.

        The paper observes that the three NDP settings behave nearly
        identically and that even the full-data fit only reaches random-guess
        accuracy at picking the best one.  To reproduce that, the factor has
        (i) a tiny systematic component that shrinks with compute capacity and
        (ii) a workflow-dependent oscillation (a smooth, deterministic
        function of the weather inputs and the hardware) that decides which
        configuration actually wins a given run.  The oscillation is far
        below the runtime noise and is not linear in the features, so no
        linear recommender -- bandit or full fit -- can predict the winner
        better than chance, which is exactly the regime Experiment 2 reports.
        """
        capacity = hardware.compute_capacity
        # Systematic part: capacity ~[5, 10] (the NDP triple) mapped onto
        # [+spread/4, -spread/4].
        reference = 7.5
        scale = (capacity - reference) / reference
        systematic = -self.hardware_spread * 0.25 * min(max(scale, -1.0), 1.0)
        # Workflow-dependent part: which configuration wins depends on the
        # run's inputs (cache/IO alignment effects in the real platform).
        phase = (
            0.017 * float(features.get("wind_direction", 0.0))
            + 0.23 * float(features.get("surface_moisture", 0.0))
            + 0.00071 * float(features.get("sim_time", 0.0))
        )
        wobble = self.hardware_spread * 0.5 * np.sin(phase * (1.0 + 0.37 * capacity))
        return 1.0 + systematic + wobble

    def expected_runtime(self, features: Dict[str, float], hardware: HardwareConfig) -> float:
        base = self._intercept + ordered_sum(
            self._coefficients[name] * float(features[name]) for name in self.feature_names
        )
        base = max(base, 300.0)
        return base * self._hardware_factor(features, hardware)

    def noise_scale(self, expected: float) -> float:
        return float(np.hypot(self.noise_seconds, 0.12 * expected))

    # ------------------------------------------------------------------ #
    def true_coefficients(self, hardware: HardwareConfig) -> Dict[str, float]:
        """The linear backbone of the runtime model (hardware wobble excluded).

        The per-workflow hardware factor averages to roughly 1, so these
        coefficients are what a well-fitted linear model should approach.
        """
        coeffs = {f"w_{k}": v for k, v in self._coefficients.items()}
        coeffs["b"] = self._intercept
        return coeffs
