"""The Decaying Contextual ε-Greedy strategy with tolerant selection (Algorithm 1)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.models.base import ArmModel
from repro.core.policies.base import BanditPolicy, PolicyDecision
from repro.core.selection import ToleranceConfig, TolerantSelector
from repro.hardware import HardwareCatalog, ResourceCostModel
from repro.utils.validation import check_in_range, check_probability

__all__ = ["DecayingEpsilonGreedyPolicy"]


class DecayingEpsilonGreedyPolicy(BanditPolicy):
    """Algorithm 1's selection rule.

    Each round:

    * with probability ε, pick a hardware configuration uniformly at random
      (exploration);
    * otherwise, run tolerant selection over the per-arm runtime estimates
      (exploitation): find the estimated-fastest arm, widen it by the
      tolerance, and pick the most resource-efficient arm within the
      tolerance window;
    * decay ε by the factor α.

    The paper's experiments use ``epsilon0 = 1`` and ``decay = 0.99``.

    Parameters
    ----------
    epsilon0:
        Initial exploration probability ε₀.
    decay:
        Multiplicative decay factor α applied to ε after every selection.
    tolerance:
        ``tolerance_ratio`` / ``tolerance_seconds`` pair forwarded to the
        tolerant selector; defaults to strict (runtime-optimal) selection.
    cost_model:
        Resource-efficiency model used to break near-ties; defaults to the
        standard CPU+memory footprint.
    min_epsilon:
        Lower bound on ε so that very long runs keep a sliver of exploration.
    explore_unseen_first:
        When true (default), any arm that has never been tried is selected
        before exploitation starts.  The paper initialises every arm's
        coefficients at zero -- which makes all estimates identical until an
        arm has data -- so a round-robin "seed every arm once" phase is the
        behaviour its ε₀ = 1 start effectively produces, made deterministic.
        ε is *not* decayed on these seeding rounds: they consume no ε-draw,
        so decaying there would shift the effective exploration schedule of
        Algorithm 1 by ``|H|`` rounds.
    audit_estimates:
        When true (default), every decision carries the per-arm runtime
        estimates in ``PolicyDecision.estimates``, also on exploration rounds
        where they do not influence the choice.  Exploitation rounds decide
        the same way either way (one estimate vector, one
        :meth:`~repro.core.selection.TolerantSelector.select_index` call);
        the audit dict is built from that same vector, so turning it off
        changes no decision and no ``detail`` entry.  The evaluation engine
        turns it off to skip the estimates on explore/seed rounds.
    """

    def __init__(
        self,
        epsilon0: float = 1.0,
        decay: float = 0.99,
        tolerance: Optional[ToleranceConfig] = None,
        cost_model: Optional[ResourceCostModel] = None,
        min_epsilon: float = 0.0,
        explore_unseen_first: bool = True,
        audit_estimates: bool = True,
    ):
        self.epsilon0 = check_probability(epsilon0, "epsilon0")
        self.decay = check_in_range(decay, "decay", 0.0, 1.0, inclusive=True)
        self.min_epsilon = check_probability(min_epsilon, "min_epsilon")
        if self.min_epsilon > self.epsilon0:
            raise ValueError(
                f"min_epsilon ({min_epsilon}) cannot exceed epsilon0 ({epsilon0})"
            )
        self.selector = TolerantSelector(tolerance=tolerance, cost_model=cost_model)
        self.explore_unseen_first = bool(explore_unseen_first)
        self.audit_estimates = bool(audit_estimates)
        self._epsilon = self.epsilon0
        self._round = 0
        # Arms only ever gain observations within a run, so once every model
        # has been seen the per-round unseen scan can be skipped; reset()
        # re-arms it.
        self._all_seen = False

    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> float:
        """The exploration probability that will be used for the next selection."""
        return self._epsilon

    @property
    def tolerance(self) -> ToleranceConfig:
        return self.selector.tolerance

    def reset(self) -> None:
        self._epsilon = self.epsilon0
        self._round = 0
        self._all_seen = False

    # ------------------------------------------------------------------ #
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
        epsilon_used = self._epsilon
        explored = False
        seeded = False
        values = None
        detail: Dict[str, float] = {"epsilon": epsilon_used, "round": float(self._round)}

        if self.explore_unseen_first and not self._all_seen:
            unseen = [i for i, model in enumerate(models) if not model.is_fitted]
            if not unseen:
                self._all_seen = True
        else:
            unseen = []
        if unseen:
            arm = unseen[0]
            explored = True
            seeded = True
            detail["seeded_unseen_arm"] = 1.0
        elif float(rng.random()) < epsilon_used:
            arm = int(rng.integers(len(catalog)))
            explored = True
        else:
            values = self.estimate_runtime_vector(context, models)
            arm, fastest, limit, n_candidates = self.selector.select_index(catalog, values)
            detail["tolerance_limit"] = limit
            detail["n_candidates"] = float(n_candidates)
            detail["traded_runtime"] = float(values[arm] - values[fastest])
        estimates: Dict[str, float] = {}
        if self.audit_estimates:
            if values is None:
                values = self.estimate_runtime_vector(context, models)
            estimates = dict(zip(catalog.names, values.tolist()))

        # Decay ε after every round that ran the genuine ε-draw branch
        # (Algorithm 1, line 12).  Deterministic seeding rounds consume no
        # ε-draw, so they do not advance the schedule.
        if not seeded:
            self._epsilon = max(self.min_epsilon, self._epsilon * self.decay)
        self._round += 1

        return PolicyDecision(
            arm_index=arm,
            hardware=catalog[arm],
            explored=explored,
            estimates=estimates,
            detail=detail,
        )
