"""Per-arm runtime models.

Algorithm 1 assumes ``R(H_i, x) = w_iᵀ x + b_i`` and refits each arm's
coefficients by least squares after every observation.  This sub-package
provides that estimator plus two drop-in alternatives:

* :class:`~repro.core.models.linear.LeastSquaresModel` -- the paper's batch
  ordinary-least-squares fit over all stored observations for the arm.
* :class:`~repro.core.models.ridge.RidgeModel` -- L2-regularised variant,
  better conditioned when an arm has seen fewer samples than features.
* :class:`~repro.core.models.online_linear.RecursiveLeastSquaresModel` --
  an O(m²) per-update recursive formulation that never re-touches stored
  data; numerically equivalent to ridge on the same stream.  Its posterior
  drives the LinUCB / Thompson-sampling policies.
"""

from repro.core.models.base import ArmModel
from repro.core.models.linear import LeastSquaresModel
from repro.core.models.ridge import RidgeModel
from repro.core.models.online_linear import RecursiveLeastSquaresModel

__all__ = [
    "ArmModel",
    "LeastSquaresModel",
    "RidgeModel",
    "RecursiveLeastSquaresModel",
]
