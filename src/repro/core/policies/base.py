"""The policy interface shared by every arm-selection strategy."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from repro.core.models.base import ArmModel
from repro.core.models.online_linear import RecursiveLeastSquaresModel
from repro.hardware import HardwareCatalog, HardwareConfig

__all__ = ["PolicyDecision", "BanditPolicy"]


@dataclass(frozen=True)
class PolicyDecision:
    """The outcome of one arm selection.

    Attributes
    ----------
    arm_index:
        Index of the chosen hardware in the catalog's arm order.
    hardware:
        The chosen hardware configuration.
    explored:
        True when the arm was chosen by the exploration branch (uniformly at
        random) rather than by exploiting the current estimates.
    estimates:
        Per-hardware estimated runtimes that informed the decision (empty for
        purely random choices before any model exists).
    detail:
        Policy-specific extras (e.g. the tolerance threshold, UCB scores).
    """

    arm_index: int
    hardware: HardwareConfig
    explored: bool
    estimates: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, float] = field(default_factory=dict)


class BanditPolicy(abc.ABC):
    """Selects a hardware arm given the context and the per-arm models.

    The BanditWare façade owns the catalog and the per-arm runtime models;
    policies are pure decision rules.  They receive the context vector (which
    the façade has already checked) and the models (in arm order) and return
    a :class:`PolicyDecision`.  Policies that
    keep internal state across rounds (the decaying ε, LinUCB's round counter)
    update it inside :meth:`select` and reset it in :meth:`reset`.
    """

    @abc.abstractmethod
    def select(
        self,
        context: np.ndarray,
        models: Sequence[ArmModel],
        catalog: HardwareCatalog,
        rng: np.random.Generator,
    ) -> PolicyDecision:
        """Choose an arm for ``context``."""

    def observe(self, arm_index: int, context: np.ndarray, runtime: float) -> None:
        """Hook called after the chosen arm's runtime is observed.

        Most policies keep no per-observation state (the arm models are
        updated by the façade); the default is a no-op.
        """

    # ------------------------------------------------------------------ #
    @staticmethod
    def estimate_runtimes(
        context: np.ndarray, models: Sequence[ArmModel], catalog: HardwareCatalog
    ) -> Dict[str, float]:
        """Point-estimate runtimes for every arm, in catalog order.

        ``context`` is trusted: :class:`~repro.core.BanditWare` checks every
        context where it enters (``recommend*`` / ``observe*``), so the
        per-arm evaluation goes straight to the models' raw
        :meth:`~ArmModel.predict_vector` fast path.
        """
        return {
            hw.name: model.predict_vector(context)
            for hw, model in zip(catalog, models)
        }

    @staticmethod
    def estimate_runtime_vector(
        context: np.ndarray, models: Sequence[ArmModel]
    ) -> np.ndarray:
        """Per-arm runtime estimates as an array in arm order (trusted ``context``)."""
        return np.fromiter(
            (model.predict_vector(context) for model in models),
            dtype=float,
            count=len(models),
        )

    def require_posterior(self, models: Sequence[ArmModel]) -> None:
        """Raise :class:`TypeError` unless every arm keeps a posterior.

        Only :class:`~repro.core.models.online_linear.RecursiveLeastSquaresModel`
        keeps one (its ``A⁻¹``), so LinUCB and Thompson sampling take RLS arms
        only; they call this before any draw.
        """
        for model in models:
            if not isinstance(model, RecursiveLeastSquaresModel):
                raise TypeError(
                    f"{self.name} needs RecursiveLeastSquaresModel arms, "
                    f"got {type(model).__name__}"
                )

    @property
    def name(self) -> str:
        """A short human-readable policy name (class name by default)."""
        return type(self).__name__
