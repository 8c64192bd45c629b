"""Reward and regret accounting for the online recommendation loop.

Bandit literature speaks in rewards to maximise; BanditWare minimises
runtime.  This module keeps that translation in one place and provides the
per-round regret ledger the evaluation harness and the ablation benchmarks
consume.

Two regret notions are tracked:

* **runtime regret** -- observed (or expected) runtime on the chosen hardware
  minus the best expected runtime available for the same workflow;
* **decision regret** -- 1 when the chosen hardware differs from the
  oracle-best hardware, 0 otherwise (the complement of the paper's
  "accuracy"); and
* **queue-inclusive regret** -- runtime regret plus the time the workflow
  spent queueing for capacity.  On a shared cluster the bandit's arm choices
  change queueing delay for everyone (over-allocation starves co-tenants),
  so the contention-aware evaluation charges waiting time as regret against
  the contention-free oracle; and
* **interference-inclusive regret** -- runtime regret plus the seconds
  co-located tenants added to the observed runtime over the contention-free
  plan (the observed-vs-planned gap the progress-based cluster engine
  accounts).  The oracle runs each workflow alone, so slowdown inflicted by
  noisy neighbours is regret too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.numeric import ordered_sum

__all__ = ["RewardConfig", "RoundOutcome", "RegretLedger", "runtime_to_reward"]


def runtime_to_reward(runtime_seconds: float, scale: float = 1.0) -> float:
    """Map a runtime to a reward: ``-runtime / scale``.

    A negated (optionally scaled) runtime keeps "higher is better" semantics
    for policies written in reward terms while preserving the ordering that
    runtime minimisation needs.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    runtime_seconds = float(runtime_seconds)
    if not np.isfinite(runtime_seconds) or runtime_seconds < 0:
        raise ValueError(f"runtime must be finite and non-negative, got {runtime_seconds}")
    return -runtime_seconds / scale


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
        if self.queue_weight < 0:
            raise ValueError(f"queue_weight must be non-negative, got {self.queue_weight}")
        if self.slowdown_weight < 0:
            raise ValueError(
                f"slowdown_weight must be non-negative, got {self.slowdown_weight}"
            )

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


@dataclass(frozen=True)
class RoundOutcome:
    """Everything observed in one round of the online loop.

    ``queue_seconds`` is the time the round's workflow waited for cluster
    capacity before starting; it defaults to 0 for the contention-free
    synchronous loop, so existing callers are unaffected.

    ``planned_runtime`` is the workflow's contention-free ground-truth
    runtime (the draw the cluster made at submission).  The observed runtime
    equals it without interference; when co-located tenants slowed the run
    down, the gap is the round's :attr:`interference_seconds`.  ``None``
    (the default) means the execution substrate does not distinguish the
    two, which keeps every pre-interference caller unaffected.
    """

    round_index: int
    chosen_hardware: str
    best_hardware: str
    observed_runtime: float
    best_expected_runtime: float
    expected_runtime_on_chosen: float
    explored: bool
    queue_seconds: float = 0.0
    planned_runtime: Optional[float] = None

    def __post_init__(self) -> None:
        if self.queue_seconds < 0:
            raise ValueError(f"queue_seconds must be non-negative, got {self.queue_seconds}")
        if self.planned_runtime is not None and self.planned_runtime < 0:
            raise ValueError(
                f"planned_runtime must be non-negative, got {self.planned_runtime}"
            )

    @property
    def runtime_regret(self) -> float:
        """Expected extra seconds paid versus the oracle-best hardware."""
        return max(self.expected_runtime_on_chosen - self.best_expected_runtime, 0.0)

    @property
    def queue_inclusive_regret(self) -> float:
        """Runtime regret plus queueing delay.

        The oracle baseline runs each workflow alone with zero queueing, so
        any waiting the chosen allocation induces on a shared cluster is paid
        on top of the expected-runtime gap.
        """
        return self.runtime_regret + self.queue_seconds

    @property
    def interference_seconds(self) -> float:
        """Observed seconds added by co-located tenants over the planned run.

        Zero when the substrate reports no plan (contention-free loops) and
        exactly zero under the null interference model, whose observed
        runtimes equal the plan bit-for-bit.
        """
        if self.planned_runtime is None:
            return 0.0
        return max(self.observed_runtime - self.planned_runtime, 0.0)

    @property
    def slowdown(self) -> float:
        """Observed over planned runtime (1.0 without interference)."""
        if not self.planned_runtime:
            return 1.0
        return self.observed_runtime / self.planned_runtime

    @property
    def interference_inclusive_regret(self) -> float:
        """Runtime regret plus the slowdown inflicted by co-residents.

        The oracle runs each workflow alone at full speed, so observed
        inflation over the contention-free plan is charged as regret.
        """
        return self.runtime_regret + self.interference_seconds

    @property
    def correct(self) -> bool:
        """Whether the chosen hardware matches the oracle-best hardware."""
        return self.chosen_hardware == self.best_hardware


class RegretLedger:
    """Accumulates per-round outcomes and derives summary curves."""

    def __init__(self) -> None:
        self._rounds: List[RoundOutcome] = []

    def __len__(self) -> int:
        return len(self._rounds)

    def record(self, outcome: RoundOutcome) -> None:
        """Append one round's outcome (rounds must arrive in order)."""
        if self._rounds and outcome.round_index <= self._rounds[-1].round_index:
            raise ValueError(
                f"round {outcome.round_index} arrived after round {self._rounds[-1].round_index}"
            )
        self._rounds.append(outcome)

    @property
    def rounds(self) -> List[RoundOutcome]:
        return list(self._rounds)

    # ------------------------------------------------------------------ #
    def cumulative_runtime_regret(self) -> np.ndarray:
        """Cumulative expected runtime regret after each round."""
        if not self._rounds:
            return np.empty(0)
        return np.cumsum([r.runtime_regret for r in self._rounds])

    def cumulative_queue_inclusive_regret(self) -> np.ndarray:
        """Cumulative queue-inclusive regret (runtime regret + queueing delay)."""
        if not self._rounds:
            return np.empty(0)
        return np.cumsum([r.queue_inclusive_regret for r in self._rounds])

    def cumulative_interference_inclusive_regret(self) -> np.ndarray:
        """Cumulative interference-inclusive regret (runtime regret + slowdown)."""
        if not self._rounds:
            return np.empty(0)
        return np.cumsum([r.interference_inclusive_regret for r in self._rounds])

    def total_queue_seconds(self) -> float:
        """Sum of queueing delay across all rounds (seconds)."""
        return float(ordered_sum(r.queue_seconds for r in self._rounds))

    def total_interference_seconds(self) -> float:
        """Sum of co-residency-inflicted runtime inflation across rounds."""
        return float(ordered_sum(r.interference_seconds for r in self._rounds))

    def mean_slowdown(self) -> float:
        """Mean observed/planned runtime ratio across rounds (1.0 when empty)."""
        if not self._rounds:
            return 1.0
        return float(np.mean([r.slowdown for r in self._rounds]))

    def accuracy_curve(self, window: Optional[int] = None) -> np.ndarray:
        """Fraction of correct hardware choices, cumulatively or over a trailing window."""
        if not self._rounds:
            return np.empty(0)
        correct = np.asarray([1.0 if r.correct else 0.0 for r in self._rounds])
        if window is None:
            return np.cumsum(correct) / np.arange(1, len(correct) + 1)
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        out = np.empty_like(correct)
        for i in range(len(correct)):
            lo = max(0, i - window + 1)
            out[i] = correct[lo : i + 1].mean()
        return out

    def exploration_fraction(self) -> float:
        """Fraction of rounds whose arm was chosen by exploration."""
        if not self._rounds:
            return 0.0
        return float(np.mean([1.0 if r.explored else 0.0 for r in self._rounds]))

    def total_observed_runtime(self) -> float:
        """Sum of observed runtimes across all rounds (seconds)."""
        return float(ordered_sum(r.observed_runtime for r in self._rounds))

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports and tests."""
        if not self._rounds:
            return {
                "rounds": 0,
                "accuracy": 0.0,
                "cumulative_regret": 0.0,
                "queue_inclusive_regret": 0.0,
                "interference_inclusive_regret": 0.0,
                "total_queue_seconds": 0.0,
                "total_interference_seconds": 0.0,
                "mean_slowdown": 1.0,
                "exploration_fraction": 0.0,
                "total_runtime": 0.0,
            }
        return {
            "rounds": float(len(self._rounds)),
            "accuracy": float(self.accuracy_curve()[-1]),
            "cumulative_regret": float(self.cumulative_runtime_regret()[-1]),
            "queue_inclusive_regret": float(self.cumulative_queue_inclusive_regret()[-1]),
            "interference_inclusive_regret": float(
                self.cumulative_interference_inclusive_regret()[-1]
            ),
            "total_queue_seconds": self.total_queue_seconds(),
            "total_interference_seconds": self.total_interference_seconds(),
            "mean_slowdown": self.mean_slowdown(),
            "exploration_fraction": self.exploration_fraction(),
            "total_runtime": self.total_observed_runtime(),
        }
