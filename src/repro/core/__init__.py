"""The paper's primary contribution: the BanditWare recommender.

Sub-packages:

* :mod:`repro.core.models` -- per-arm runtime models (the linear
  ``R(H_i, x) = w_iᵀx + b_i`` assumption, in batch, ridge and recursive
  forms).
* :mod:`repro.core.policies` -- arm-selection policies, including the paper's
  decaying contextual ε-greedy strategy and the future-work alternatives
  (LinUCB, Thompson sampling).
* :mod:`repro.core.selection` -- the tolerant selection step
  (``tolerance_ratio`` / ``tolerance_seconds``).
* :mod:`repro.core.rewards` -- reward/regret accounting.
* :mod:`repro.core.banditware` -- the :class:`BanditWare` façade tying it all
  together.
"""

from repro.core.banditware import BanditWare, ObservationRecord, Recommendation
from repro.core.models import (
    ArmModel,
    LeastSquaresModel,
    RecursiveLeastSquaresModel,
    RidgeModel,
)
from repro.core.policies import (
    BanditPolicy,
    DecayingEpsilonGreedyPolicy,
    GreedyPolicy,
    LinUCBPolicy,
    PolicyDecision,
    RandomPolicy,
    ThompsonSamplingPolicy,
)
from repro.core.rewards import RegretLedger, RewardConfig, RoundOutcome
from repro.core.selection import SelectionOutcome, ToleranceConfig, TolerantSelector

__all__ = [
    "BanditWare",
    "Recommendation",
    "ObservationRecord",
    "ArmModel",
    "LeastSquaresModel",
    "RidgeModel",
    "RecursiveLeastSquaresModel",
    "BanditPolicy",
    "PolicyDecision",
    "DecayingEpsilonGreedyPolicy",
    "GreedyPolicy",
    "RandomPolicy",
    "LinUCBPolicy",
    "ThompsonSamplingPolicy",
    "ToleranceConfig",
    "TolerantSelector",
    "SelectionOutcome",
    "RegretLedger",
    "RewardConfig",
    "RoundOutcome",
]
