"""The BanditWare recommender façade.

:class:`BanditWare` is the public entry point of the library: it owns the
hardware catalog (the arm space), one runtime model per arm, and an
arm-selection policy, and exposes the online loop the paper describes --
``recommend`` a hardware configuration for an incoming workflow, schedule the
workflow, then ``observe`` the measured runtime so the per-arm model is
refined (Algorithm 1).

A typical online session::

    from repro import BanditWare, ndp_catalog

    bw = BanditWare(catalog=ndp_catalog(), feature_names=["area", "wind_speed"], seed=7)
    for workflow in stream:
        rec = bw.recommend(workflow.features)
        runtime = run_on_cluster(workflow, rec.hardware)      # user-provided
        bw.observe(workflow.features, rec.hardware, runtime)

Historical data can seed the models before going online via
:meth:`BanditWare.warm_start`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.models import ArmModel, LeastSquaresModel
from repro.core.policies import BanditPolicy, DecayingEpsilonGreedyPolicy, PolicyDecision
from repro.core.rewards import RewardConfig
from repro.core.selection import ToleranceConfig, TolerantSelector
from repro.dataframe import DataFrame
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import all_finite

__all__ = ["Recommendation", "ObservationRecord", "BanditWare"]


@dataclass(frozen=True)
class Recommendation:
    """What :meth:`BanditWare.recommend` returns.

    Attributes
    ----------
    hardware:
        The recommended hardware configuration.
    decision:
        The underlying policy decision with its audit trail (estimates,
        whether the round explored, the tolerance threshold used, ...).
    """

    hardware: HardwareConfig
    decision: PolicyDecision

    @property
    def explored(self) -> bool:
        return self.decision.explored

    @property
    def estimates(self) -> Dict[str, float]:
        return dict(self.decision.estimates)


@dataclass(frozen=True)
class ObservationRecord:
    """One observation fed back to the recommender.

    ``queue_seconds`` is the capacity-wait the workflow reported alongside
    its runtime (0 for contention-free observations); ``slowdown`` is the
    observed/planned runtime ratio an interference-aware cluster measured
    (``None`` when the substrate does not report one).
    """

    features: Dict[str, float]
    hardware: str
    runtime_seconds: float
    queue_seconds: float = 0.0
    slowdown: Optional[float] = None


def _checked_runtime(runtime_seconds: float) -> float:
    runtime = float(runtime_seconds)
    if not math.isfinite(runtime) or runtime < 0:
        raise ValueError(f"runtime_seconds must be finite and non-negative, got {runtime}")
    return runtime


class BanditWare:
    """Online hardware recommendation with per-hardware linear runtime models.

    Parameters
    ----------
    catalog:
        The hardware configurations to choose among (the arm space).
    feature_names:
        Ordered names of the workflow features forming the context vector.
    policy:
        Arm-selection policy; defaults to the paper's decaying contextual
        ε-greedy strategy (``epsilon0 = 1``, ``decay = 0.99``) with the given
        ``tolerance``.
    tolerance:
        Convenience shortcut for the default policy's
        ``(tolerance_ratio, tolerance_seconds)``; ignored when an explicit
        ``policy`` instance is supplied.
    arm_model_factory:
        Callable returning a fresh :class:`~repro.core.models.ArmModel` given
        the number of features; defaults to the paper's batch least-squares
        model.
    seed:
        Seed for the policy's exploration randomness.
    track_history:
        When true (default) every observation is appended to :attr:`history`.
        The evaluation engine disables this to avoid per-round bookkeeping it
        never reads; decisions are unaffected.
    reward:
        Observation shaping (:class:`~repro.core.rewards.RewardConfig`).  The
        default ``runtime`` mode trains on observed runtimes exactly as the
        paper does; the opt-in ``queue_inclusive`` mode folds reported
        queueing delay into the training target so the bandit learns to
        avoid contended hardware.
    """

    def __init__(
        self,
        catalog: HardwareCatalog,
        feature_names: Sequence[str],
        policy: Optional[BanditPolicy] = None,
        tolerance: Optional[ToleranceConfig] = None,
        arm_model_factory: Optional[Callable[[int], ArmModel]] = None,
        seed: SeedLike = None,
        track_history: bool = True,
        reward: Optional[RewardConfig] = None,
    ):
        if not feature_names:
            raise ValueError("feature_names must contain at least one feature")
        names = [str(n) for n in feature_names]
        if len(set(names)) != len(names):
            raise ValueError(f"feature_names contains duplicates: {names}")
        self.catalog = catalog
        self.feature_names: List[str] = names
        factory = arm_model_factory or LeastSquaresModel
        self.policy = policy or DecayingEpsilonGreedyPolicy(tolerance=tolerance)
        self._rng = as_generator(seed)
        self._models: List[ArmModel] = [factory(len(names)) for _ in catalog]
        self._history: List[ObservationRecord] = []
        self.track_history = bool(track_history)
        self.reward = reward or RewardConfig()
        self._version = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def models(self) -> List[ArmModel]:
        """Per-arm runtime models, in catalog (arm) order."""
        return list(self._models)

    @property
    def history(self) -> List[ObservationRecord]:
        """All observations fed to :meth:`observe` / :meth:`warm_start`, in order."""
        return list(self._history)

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every observation.

        Two reads with the same version saw the same per-arm models.
        """
        return self._version

    def coefficients(self) -> Dict[str, Dict[str, float]]:
        """Named coefficients of every arm: ``{hardware: {"w_<feat>": .., "b": ..}}``."""
        return {
            hw.name: model.coefficient_dict(self.feature_names)
            for hw, model in zip(self.catalog, self._models)
        }

    def observation_counts(self) -> Dict[str, int]:
        """Number of observations each arm's model has seen."""
        return {hw.name: model.n_observations for hw, model in zip(self.catalog, self._models)}

    # ------------------------------------------------------------------ #
    # Feature handling and input checks
    #
    # Each input is checked once, by the public entry it came through:
    # ``recommend_vector`` / ``observe_vector`` check contexts (``recommend``
    # / ``observe`` hand them the vector ``context_vector`` built), the
    # ``observe*`` entries check runtimes, and ``observe_batch`` checks every
    # row first.  The policy and the arm models behind them trust their inputs.
    # ------------------------------------------------------------------ #
    def context_vector(self, features: Dict[str, float]) -> np.ndarray:
        """Order the ``features`` dict into the context vector ``x``.

        Raises ``KeyError`` naming any missing feature; extra keys are
        ignored.  Finiteness is checked by the entry the vector is handed to.
        """
        try:
            return np.asarray([float(features[name]) for name in self.feature_names])
        except KeyError:
            missing = [name for name in self.feature_names if name not in features]
            raise KeyError(
                f"features missing {missing}; BanditWare expects {self.feature_names}"
            ) from None

    def _checked_context(self, context: np.ndarray) -> np.ndarray:
        """``context`` as a float vector of length :attr:`n_features`, all finite."""
        context = np.asarray(context, dtype=float)
        if context.shape != (len(self.feature_names),):
            raise ValueError(
                f"context must have shape ({self.n_features},), got {context.shape}"
            )
        if not all_finite(context.tolist()):
            raise ValueError("context contains non-finite values")
        return context

    def _arm_index(self, hardware: Union[str, HardwareConfig, int]) -> int:
        """The arm of a hardware name, a configuration or an integer arm index."""
        if isinstance(hardware, (str, HardwareConfig)):
            return self.catalog.index_of(hardware)
        if isinstance(hardware, bool):
            raise TypeError(f"an arm index must be an integer, not a bool ({hardware!r})")
        arm = operator.index(hardware)
        if not 0 <= arm < len(self.catalog):
            raise IndexError(f"arm index {arm} out of range for {len(self.catalog)} arms")
        return arm

    # ------------------------------------------------------------------ #
    # The online loop
    # ------------------------------------------------------------------ #
    def recommend(self, features: Dict[str, float]) -> Recommendation:
        """Recommend a hardware configuration for one incoming workflow."""
        return self.recommend_vector(self.context_vector(features))

    def recommend_vector(self, context: np.ndarray) -> Recommendation:
        """Recommend for an already-ordered context vector.

        ``context`` must be a 1-D array in :attr:`feature_names` order with
        finite entries; it is checked here, before the policy draws anything,
        whichever branch the policy then takes.  It produces exactly the same
        decision stream as the dict-based API.
        """
        return self._recommend(self._checked_context(context))

    def _recommend(self, context: np.ndarray) -> Recommendation:
        decision = self.policy.select(context, self._models, self.catalog, self._rng)
        return Recommendation(hardware=decision.hardware, decision=decision)

    def observe(
        self,
        features: Dict[str, float],
        hardware: Union[str, HardwareConfig],
        runtime_seconds: float,
        queue_seconds: float = 0.0,
        slowdown: Optional[float] = None,
    ) -> None:
        """Feed back the observed runtime of a workflow run on ``hardware``.

        ``queue_seconds`` reports how long the workflow waited for cluster
        capacity; it only shapes the learning signal when the recommender's
        :attr:`reward` is in ``queue_inclusive`` mode.  ``slowdown`` reports
        the observed/planned runtime ratio an interference-aware cluster
        measured; it only shapes the signal in ``slowdown_inclusive`` mode.
        """
        self.observe_vector(
            self.context_vector(features),
            hardware,
            runtime_seconds,
            features=features,
            queue_seconds=queue_seconds,
            slowdown=slowdown,
        )

    def observe_vector(
        self,
        context: np.ndarray,
        hardware: Union[str, HardwareConfig, int],
        runtime_seconds: float,
        features: Optional[Dict[str, float]] = None,
        validate: bool = True,
        queue_seconds: float = 0.0,
        slowdown: Optional[float] = None,
    ) -> None:
        """Feed back one observation given an already-ordered context vector.

        ``hardware`` may also be an integer arm index (any type
        :func:`operator.index` accepts, but not ``bool``).  ``features`` is
        only used for the history record; when omitted it is reconstructed
        from the context vector and :attr:`feature_names`.

        The runtime and the context are checked here, once: :meth:`observe`
        hands over the context it built without checking it first.
        ``validate=False`` skips these two checks, for callers whose context
        and runtime were checked where they entered (the evaluation engine's
        replay arrays).  The arm, queue delay and slowdown are checked either
        way, before any state changes.
        """
        if validate:
            runtime_seconds = _checked_runtime(runtime_seconds)
            context = self._checked_context(context)
        arm = self._arm_index(hardware)
        # In the default "runtime" mode this is runtime_seconds, untouched.
        target = self.reward.effective_runtime(runtime_seconds, queue_seconds, slowdown)
        self._models[arm].update_vector(context, target)
        self.policy.observe(arm, context, target)
        self._version += 1
        if self.track_history:
            if features is None:
                features = dict(zip(self.feature_names, map(float, context)))
            self._history.append(
                ObservationRecord(
                    features={k: float(v) for k, v in features.items()},
                    hardware=self.catalog[arm].name,
                    runtime_seconds=runtime_seconds,
                    queue_seconds=float(queue_seconds),
                    slowdown=float(slowdown) if slowdown is not None else None,
                )
            )

    def observe_batch(
        self,
        features_batch: Sequence[Dict[str, float]],
        hardware: Sequence[Union[str, HardwareConfig]],
        runtimes_seconds: Sequence[float],
        queues_seconds: Optional[Sequence[float]] = None,
        slowdowns: Optional[Sequence[Optional[float]]] = None,
    ) -> None:
        """Feed back a batch of observations in one call.

        The final recommender state is exactly what a sequence of
        :meth:`observe` calls in the same order would leave behind: per-arm
        model data is ingested in arrival order and the policy hook runs once
        per observation.  Only the intermediate per-row model refits are
        skipped (via :meth:`ArmModel.update_rows`, once per arm), which is
        where the batch path earns its speedup.  All rows are checked before
        any state changes, and only here: ``update_rows`` trusts them.

        ``queues_seconds`` optionally reports each workflow's capacity wait;
        like :meth:`observe`, it only shapes the learning signal in
        ``queue_inclusive`` reward mode.  ``slowdowns`` optionally reports
        each workflow's observed/planned ratio (entries may be ``None``);
        it only shapes the signal in ``slowdown_inclusive`` mode.
        """
        if not (len(features_batch) == len(hardware) == len(runtimes_seconds)):
            raise ValueError(
                f"batch length mismatch: {len(features_batch)} feature dicts, "
                f"{len(hardware)} hardware entries, {len(runtimes_seconds)} runtimes"
            )
        if queues_seconds is not None and len(queues_seconds) != len(runtimes_seconds):
            raise ValueError(
                f"batch length mismatch: {len(runtimes_seconds)} runtimes but "
                f"{len(queues_seconds)} queue delays"
            )
        if slowdowns is not None and len(slowdowns) != len(runtimes_seconds):
            raise ValueError(
                f"batch length mismatch: {len(runtimes_seconds)} runtimes but "
                f"{len(slowdowns)} slowdowns"
            )
        contexts = [
            self._checked_context(self.context_vector(features)) for features in features_batch
        ]
        arms = [self._arm_index(hw) for hw in hardware]
        runtimes = [_checked_runtime(r) for r in runtimes_seconds]
        queues = [0.0] * len(runtimes) if queues_seconds is None else [float(q) for q in queues_seconds]
        ratios = (
            [None] * len(runtimes)
            if slowdowns is None
            else [None if s is None else float(s) for s in slowdowns]
        )
        # effective_runtime checks queue delays and slowdowns (and is the
        # identity in the default "runtime" mode).
        targets = [
            self.reward.effective_runtime(runtime, queue, ratio)
            for runtime, queue, ratio in zip(runtimes, queues, ratios)
        ]
        per_arm: Dict[int, List[int]] = {}
        for row, arm in enumerate(arms):
            per_arm.setdefault(arm, []).append(row)
        for arm, rows in per_arm.items():
            self._models[arm].update_rows(
                np.array([contexts[row] for row in rows]), [targets[row] for row in rows]
            )
        self._version += len(runtimes)
        for features, context, arm, target, runtime, queue, ratio in zip(
            features_batch, contexts, arms, targets, runtimes, queues, ratios
        ):
            self.policy.observe(arm, context, target)
            if self.track_history:
                self._history.append(
                    ObservationRecord(
                        features={k: float(v) for k, v in features.items()},
                        hardware=self.catalog[arm].name,
                        runtime_seconds=runtime,
                        queue_seconds=queue,
                        slowdown=ratio,
                    )
                )

    # ------------------------------------------------------------------ #
    # Prediction / offline use
    # ------------------------------------------------------------------ #
    def predict_runtimes(self, features: Dict[str, float]) -> Dict[str, float]:
        """Estimated runtime of ``features`` on every hardware configuration."""
        context = self._checked_context(self.context_vector(features))
        return {
            hw.name: model.predict_vector(context)
            for hw, model in zip(self.catalog, self._models)
        }

    def best_hardware(
        self, features: Dict[str, float], tolerance: Optional[ToleranceConfig] = None
    ) -> HardwareConfig:
        """The hardware tolerant selection would pick right now (no exploration)."""
        estimates = list(self.predict_runtimes(features).values())
        return self.catalog[TolerantSelector(tolerance).select_index(self.catalog, estimates)[0]]

    # ------------------------------------------------------------------ #
    # Warm starting from historical data
    # ------------------------------------------------------------------ #
    def warm_start(
        self,
        frame: DataFrame,
        hardware_column: str = "hardware",
        runtime_column: str = "runtime_seconds",
    ) -> int:
        """Seed the per-arm models from a run-history table.

        The frame must contain one column per feature in
        :attr:`feature_names`, plus the hardware name and runtime columns.
        Rows whose hardware is not in the catalog are skipped.  Returns the
        number of rows ingested.

        Ingestion goes through :meth:`observe_batch`, so each arm's model is
        refit once for the whole table rather than once per row.
        """
        for column in (hardware_column, runtime_column, *self.feature_names):
            if column not in frame:
                raise KeyError(
                    f"warm_start frame is missing column {column!r}; columns: {frame.columns}"
                )
        features_batch: List[Dict[str, float]] = []
        hardware: List[str] = []
        runtimes: List[float] = []
        for row in frame.iterrows():
            hw_name = str(row[hardware_column])
            if hw_name not in self.catalog:
                continue
            features_batch.append({name: float(row[name]) for name in self.feature_names})
            hardware.append(hw_name)
            runtimes.append(float(row[runtime_column]))
        self.observe_batch(features_batch, hardware, runtimes)
        return len(runtimes)
