"""Thompson sampling over the per-arm linear-model posteriors.

Each round, a runtime is *sampled* from every arm's coefficient posterior and
the arm with the smallest sampled runtime is chosen.  Arms the system is
uncertain about produce widely varying samples and therefore keep getting
tried occasionally; well-understood arms converge to their point estimates.

Requires arm models that can sample predictions
(:class:`~repro.core.models.online_linear.RecursiveLeastSquaresModel`).  For
models without a posterior the policy falls back to the point estimate plus
Gaussian noise proportional to the model's uncertainty score, which preserves
the explore-while-uncertain behaviour.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.models.base import ArmModel
from repro.core.models.online_linear import RecursiveLeastSquaresModel
from repro.core.policies.base import BanditPolicy, PolicyDecision
from repro.hardware import HardwareCatalog
from repro.utils.validation import check_positive

__all__ = ["ThompsonSamplingPolicy"]


class ThompsonSamplingPolicy(BanditPolicy):
    """Posterior-sampling arm selection for runtime minimisation.

    Parameters
    ----------
    prior_scale:
        Standard deviation of the pseudo-posterior used for never-tried arms
        and for models that expose no sampling interface; expressed as a
        fraction of the current best point estimate (or 1.0 s when no arm has
        data yet).
    """

    def __init__(self, prior_scale: float = 1.0):
        self.prior_scale = check_positive(prior_scale, "prior_scale")

    def _sample_runtime(
        self, model: ArmModel, context: np.ndarray, rng: np.random.Generator, reference: float
    ) -> float:
        if isinstance(model, RecursiveLeastSquaresModel) and model.is_fitted:
            return model.sample_prediction(context, rng)
        if not model.is_fitted:
            # An uninformed arm: sample far-and-wide around the reference so
            # it has a real chance of winning the round.
            return float(rng.normal(reference, self.prior_scale * max(reference, 1.0)))
        estimate = model.predict_vector(context)
        width = model.uncertainty(context)
        if not np.isfinite(width):
            width = self.prior_scale * max(abs(estimate), 1.0)
        return float(rng.normal(estimate, width))

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
        estimates = self.estimate_runtimes(context, models, catalog)
        fitted = [v for m, v in zip(models, estimates.values()) if m.is_fitted]
        reference = float(min(fitted)) if fitted else 1.0
        samples: Dict[str, float] = {
            hw.name: self._sample_runtime(model, context, rng, reference)
            for hw, model in zip(catalog, models)
        }
        chosen_name = min(samples, key=lambda name: (samples[name], catalog.index_of(name)))
        arm = catalog.index_of(chosen_name)
        explored = not models[arm].is_fitted
        return PolicyDecision(
            arm_index=arm,
            hardware=catalog[arm],
            explored=explored,
            estimates=estimates,
            detail={f"sample_{name}": float(v) for name, v in samples.items()},
        )
