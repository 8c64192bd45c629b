"""Pure exploitation: always apply tolerant selection to the current estimates."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.models.base import ArmModel
from repro.core.policies.base import BanditPolicy, PolicyDecision
from repro.core.selection import ToleranceConfig, TolerantSelector
from repro.hardware import HardwareCatalog

__all__ = ["GreedyPolicy"]


class GreedyPolicy(BanditPolicy):
    """The ε = 0 limit of Algorithm 1.

    Useful as an ablation (how much does the decaying exploration matter?) and
    as the "exploitation head" for offline evaluation: once BanditWare has
    been warm-started from historical data, recommending with a greedy policy
    reproduces what the paper calls prediction accuracy on the full dataset.

    Arms that have never been tried are selected first (round robin), so
    the greedy policy cannot dead-lock on all-zero estimates.

    Parameters
    ----------
    tolerance:
        Same meaning as for
        :class:`~repro.core.policies.epsilon_greedy.DecayingEpsilonGreedyPolicy`.
    """

    def __init__(self, tolerance: Optional[ToleranceConfig] = None):
        self.selector = TolerantSelector(tolerance=tolerance)

    def select(
        self,
        context: np.ndarray,
        models: Sequence[ArmModel],
        catalog: HardwareCatalog,
        rng: np.random.Generator,
    ) -> PolicyDecision:
        if len(models) != len(catalog):
            raise ValueError(
                f"got {len(models)} models for {len(catalog)} hardware configurations"
            )
        values = self.estimate_runtime_vector(context, models)
        estimates = dict(zip(catalog.names, values.tolist()))
        unseen = [i for i, model in enumerate(models) if not model.is_fitted]
        if unseen:
            arm = int(unseen[0])
            return PolicyDecision(
                arm_index=arm,
                hardware=catalog[arm],
                explored=True,
                estimates=estimates,
                detail={"seeded_unseen_arm": 1.0},
            )
        arm, _, limit, n_candidates = self.selector.select_index(catalog, values)
        return PolicyDecision(
            arm_index=arm,
            hardware=catalog[arm],
            explored=False,
            estimates=estimates,
            detail={"tolerance_limit": limit, "n_candidates": float(n_candidates)},
        )
