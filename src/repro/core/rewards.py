"""What the bandit learns from a completion: :class:`RewardConfig`.

BanditWare minimises runtime.  This module decides what each arm model
learns from a completion: the observed runtime (the paper's signal), or a
queue- or slowdown-inclusive target.  Regret is not defined here: the
contention engine's :class:`~repro.evaluation.engine.ScenarioAccountant`
writes each completion's runtime, queue-inclusive and interference regret
into its accounting row, and the reports fold those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.validation import check_non_negative

__all__ = ["RewardConfig"]


@dataclass(frozen=True)
class RewardConfig:
    """How an observed completion is turned into the bandit's learning signal.

    The paper's loop trains each arm's runtime model on the observed runtime
    alone.  On a shared cluster that signal is blind to the damage an
    over-sized allocation does: a big arm may run fastest once placed while
    making every workflow (its own included) wait longer for capacity.  The
    opt-in ``queue_inclusive`` mode folds the observed queueing delay into
    the training target, so the per-arm models learn *queue-inclusive*
    runtimes and tolerant selection steers away from contended hardware.

    Similarly, the observed runtime on a shared interference-aware cluster
    is blind to *who paid* for a packing decision: a run that landed amid
    noisy neighbours reports an inflated runtime, but nothing tells the
    bandit that the inflation was placement damage rather than the arm's
    intrinsic speed.  The opt-in ``slowdown_inclusive`` mode charges the
    interference-inflicted seconds (observed minus contention-free planned
    runtime, derived from the reported slowdown) *again*, weighted by
    ``slowdown_weight``, so arms whose allocations keep ending up contended
    train on penalised targets -- the slowdown analogue of the queue-aware
    mode.

    Parameters
    ----------
    mode:
        ``"runtime"`` (the paper's signal, the default),
        ``"queue_inclusive"`` or ``"slowdown_inclusive"``.
    queue_weight:
        Seconds of training-target inflation per second of queueing delay
        (only used in ``queue_inclusive`` mode).  ``1.0`` charges waiting at
        par with running; values below 1 discount it.
    slowdown_weight:
        Extra seconds of training-target inflation per second of
        interference-inflicted runtime (only used in ``slowdown_inclusive``
        mode).  With weight ``w`` the target is
        ``observed + w * (observed - planned)``: ``1.0`` double-charges the
        noisy-neighbour damage, ``0.0`` reduces to the plain runtime mode.
    """

    mode: str = "runtime"
    queue_weight: float = 1.0
    slowdown_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in ("runtime", "queue_inclusive", "slowdown_inclusive"):
            raise ValueError(
                f"unknown reward mode {self.mode!r}; choose 'runtime', "
                "'queue_inclusive' or 'slowdown_inclusive'"
            )
        check_non_negative(self.queue_weight, "queue_weight")
        check_non_negative(self.slowdown_weight, "slowdown_weight")

    @property
    def queue_aware(self) -> bool:
        return self.mode == "queue_inclusive"

    @property
    def slowdown_aware(self) -> bool:
        return self.mode == "slowdown_inclusive"

    def effective_runtime(
        self,
        runtime_seconds: float,
        queue_seconds: float = 0.0,
        slowdown: Optional[float] = None,
    ) -> float:
        """The training target for one completion.

        In ``runtime`` mode this returns ``runtime_seconds`` unchanged (bit
        for bit -- the default config cannot perturb the paper's loop); in
        ``queue_inclusive`` mode it returns
        ``runtime_seconds + queue_weight * queue_seconds``; in
        ``slowdown_inclusive`` mode it returns
        ``runtime_seconds + slowdown_weight * interference_seconds`` where
        the interference seconds are recovered from the reported
        observed/planned ``slowdown`` ratio
        (``runtime * (1 - 1/slowdown)``).  A missing or unit slowdown adds
        nothing, so contention-free completions train on the paper's plain
        signal in every mode.  Invalid (negative or non-finite) queue delays
        and invalid (non-positive or non-finite) slowdowns are rejected in
        *all* modes, so callers get mode-independent validation.
        """
        if queue_seconds:  # 0.0 needs no check; NaN and negatives are truthy
            queue_seconds = float(queue_seconds)
            if not np.isfinite(queue_seconds) or queue_seconds < 0:
                raise ValueError(
                    f"queue_seconds must be finite and non-negative, got {queue_seconds}"
                )
        if slowdown is not None:
            slowdown = float(slowdown)
            if not np.isfinite(slowdown) or slowdown <= 0:
                raise ValueError(
                    f"slowdown must be finite and positive, got {slowdown}"
                )
        if self.queue_aware:
            return float(runtime_seconds) + self.queue_weight * queue_seconds
        if self.slowdown_aware:
            if slowdown is None or slowdown <= 1.0:
                return runtime_seconds
            interference_seconds = float(runtime_seconds) * (1.0 - 1.0 / slowdown)
            return float(runtime_seconds) + self.slowdown_weight * interference_seconds
        return runtime_seconds
