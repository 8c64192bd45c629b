"""Tolerant hardware selection (the exploitation branch of Algorithm 1).

Given estimated runtimes for every hardware configuration, the paper's
exploitation step is:

1. find the estimated-fastest configuration ``H_fastest``;
2. compute the tolerance threshold
   ``R_limit = (1 + tolerance_ratio) · R̂(H_fastest, x) + tolerance_seconds``;
3. among all configurations with ``R̂(H_i, x) ≤ R_limit``, choose the one with
   the most resource efficiency.

Setting both tolerance parameters to zero makes the selection purely
runtime-optimal; non-zero values trade a bounded slowdown for lighter-weight
hardware, which is what Figures 11 and 12 study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.hardware import HardwareCatalog, rank_by_efficiency
from repro.utils.validation import all_finite, check_non_negative

__all__ = ["ToleranceConfig", "TolerantSelector"]


@dataclass(frozen=True)
class ToleranceConfig:
    """The two tolerance knobs of Algorithm 1.

    Attributes
    ----------
    ratio:
        ``tolerance_ratio`` (``tr``): allowed *relative* slowdown over the
        estimated-fastest runtime (0.05 = 5 %).
    seconds:
        ``tolerance_seconds`` (``ts``): allowed *absolute* extra seconds.
    """

    ratio: float = 0.0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.ratio, "tolerance ratio")
        check_non_negative(self.seconds, "tolerance seconds")

    def limit(self, fastest_estimate: float | np.ndarray) -> float | np.ndarray:
        """``R_limit`` for a given estimated-fastest runtime.

        Accepts a scalar or an array of fastest estimates (the vectorised
        scorer passes one per evaluation workflow).

        The threshold is clamped to never fall below the fastest estimate
        itself: early under-determined linear fits can predict a *negative*
        fastest runtime, and ``(1 + ratio) · R̂`` with ``R̂ < 0`` would then
        shrink the window so far that even the estimated-fastest arm fails to
        qualify.  The fastest arm must always be a candidate.
        """
        if isinstance(fastest_estimate, (int, float)):
            fastest = float(fastest_estimate)
            raw = (1.0 + self.ratio) * fastest + self.seconds
            return raw if raw >= fastest else fastest
        fastest = np.asarray(fastest_estimate, dtype=float)
        if self.ratio == 0.0 and self.seconds == 0.0:
            # Strict tolerance: the limit is the fastest estimate itself.
            clamped = fastest
        else:
            raw = (1.0 + self.ratio) * fastest + self.seconds
            clamped = np.maximum(raw, fastest)
        if np.ndim(fastest_estimate) == 0:
            return float(clamped)
        return clamped

    @property
    def is_strict(self) -> bool:
        """True when both tolerances are zero (pure runtime minimisation)."""
        return self.ratio == 0.0 and self.seconds == 0.0


class TolerantSelector:
    """Implements the tolerant selection strategy of Algorithm 1.

    Among the near-fastest candidates it picks the first in
    :func:`~repro.hardware.rank_by_efficiency` order.

    Parameters
    ----------
    tolerance:
        The ratio/seconds tolerance pair (defaults to strict selection).
    """

    def __init__(self, tolerance: Optional[ToleranceConfig] = None):
        self.tolerance = tolerance or ToleranceConfig()
        self._order_cache: dict = {}

    # ------------------------------------------------------------------ #
    def efficiency_order(self, catalog: HardwareCatalog) -> np.ndarray:
        """Arm indices sorted most-efficient first (cached for the last catalog).

        The ordering (including tie-breaks) is exactly the one
        :func:`~repro.hardware.rank_by_efficiency` produces, so picking the
        first candidate in this order equals the first entry of
        ``rank_by_efficiency`` over the candidate set.  The cache holds the
        catalog itself, not its ``id()``: a checkpoint pickles the cache, and
        a memory address would make the same state pickle to other bytes.
        """
        cached = self._order_cache
        if cached.get("catalog") is not catalog:
            order = [catalog.index_of(hw) for hw in rank_by_efficiency(catalog)]
            cached = self._order_cache = {
                "catalog": catalog,
                "order": np.asarray(order, dtype=np.intp),
            }
        return cached["order"]

    def select_index(
        self, catalog: HardwareCatalog, values: Sequence[float] | np.ndarray
    ) -> tuple:
        """Tolerant selection over per-arm estimates: the one implementation of the rule.

        ``values`` are per-arm runtime estimates in catalog order (a 1-D
        array or a sequence of floats).  Returns ``(chosen_arm, fastest_arm,
        limit, n_candidates)``: the fastest arm is the first minimum, the
        limit is :meth:`ToleranceConfig.limit` of its estimate, and the
        chosen arm is the first arm in :meth:`efficiency_order` whose
        estimate is within the limit.  It is the only selection API: the
        ε-greedy and greedy policies call it on every exploitation round,
        and :meth:`~repro.core.BanditWare.best_hardware` on its estimates.

        The rule runs on Python floats: for a handful of arms that is
        cheaper than the equivalent NumPy reductions, and it compares the
        same IEEE doubles, so the choice is identical.
        """
        est = values.tolist() if isinstance(values, np.ndarray) else [float(v) for v in values]
        if len(est) != len(catalog):
            raise ValueError(f"expected {len(catalog)} estimates, got {len(est)}")
        if not all_finite(est):
            bad = {hw.name: v for hw, v in zip(catalog, est) if not math.isfinite(v)}
            raise ValueError(f"runtime estimates must be finite, got {bad}")
        fastest = est.index(min(est))
        limit = self.tolerance.limit(est[fastest])
        # The limit never falls below the fastest estimate, so some arm qualifies.
        chosen = next(
            arm for arm in self.efficiency_order(catalog).tolist() if est[arm] <= limit
        )
        return chosen, fastest, limit, len([v for v in est if v <= limit])
