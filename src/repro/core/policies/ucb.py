"""LinUCB-style optimistic selection over the per-arm linear models.

The paper lists "different and more complex contextual bandit algorithms" as
future work; LinUCB is the canonical next step.  Because BanditWare
*minimises* runtime, optimism means selecting the arm with the smallest
*lower* confidence bound ``R̂(H_i, x) − α·σ_i(x)``: an arm we know little
about gets the benefit of the doubt and is tried sooner.

The width ``σ_i(x)`` is the posterior predictive standard deviation of a
:class:`~repro.core.models.online_linear.RecursiveLeastSquaresModel` arm, the
only model that keeps a posterior; the policy refuses any other.  Its ``λI``
prior makes the width finite from round 0, so never-tried arms compete on
their prior width rather than winning outright.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.models.base import ArmModel
from repro.core.policies.base import BanditPolicy, PolicyDecision
from repro.hardware import HardwareCatalog
from repro.utils.validation import check_non_negative

__all__ = ["LinUCBPolicy"]


class LinUCBPolicy(BanditPolicy):
    """Optimism in the face of uncertainty for runtime minimisation.

    Parameters
    ----------
    alpha:
        Width multiplier of the confidence interval.  ``alpha = 0`` collapses
        to greedy selection on the point estimates.
    """

    def __init__(self, alpha: float = 1.0):
        self.alpha = check_non_negative(alpha, "alpha")

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
        self.require_posterior(models)
        estimates = self.estimate_runtimes(context, models, catalog)
        scores: Dict[str, float] = {
            hw.name: estimates[hw.name] - self.alpha * model.uncertainty(context)
            for hw, model in zip(catalog, models)
        }
        # Lowest optimistic runtime wins; ties break on catalog order.
        chosen_name = min(scores, key=lambda name: (scores[name], catalog.index_of(name)))
        arm = catalog.index_of(chosen_name)
        explored = not models[arm].is_fitted
        return PolicyDecision(
            arm_index=arm,
            hardware=catalog[arm],
            explored=explored,
            estimates=estimates,
            detail={f"lcb_{name}": float(score) for name, score in scores.items()},
        )
