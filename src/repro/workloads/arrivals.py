"""Workflow arrival processes for multi-tenant cluster evaluation.

The paper's online loop schedules exactly one workflow per round -- an
idealised, contention-free arrival pattern.  Shared platforms see something
else entirely: independent tenants submitting on their own clocks, traffic
bursts, and users who wait for one workflow to finish before launching the
next.  These small models generate those streams for the contention-aware
evaluation (:mod:`repro.evaluation.contention`):

* :class:`PoissonArrivals` -- memoryless open-loop traffic at a fixed rate;
* :class:`BurstyArrivals` -- open-loop traffic arriving in periodic bursts
  (workflow campaigns, cron-triggered pipelines);
* :class:`ClosedLoopArrivals` -- a closed loop keeping a fixed number of
  workflows in flight, submitting the next one when a previous one finishes
  (with an optional think time).  With ``concurrency=1`` and zero think time
  this reproduces the paper's one-workflow-per-round loop exactly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "ClosedLoopArrivals",
]


class ArrivalProcess(abc.ABC):
    """An open-loop arrival process: submission times independent of completions."""

    @abc.abstractmethod
    def arrival_times(self, n: int, rng: np.random.Generator) -> List[float]:
        """Absolute submission times (seconds, non-decreasing) for ``n`` workflows."""


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Workflows arrive as a Poisson process of ``rate_per_second``.

    Attributes
    ----------
    rate_per_second:
        Mean arrival rate; inter-arrival gaps are exponential with mean
        ``1 / rate_per_second``.
    start_time:
        Time of reference for the first gap.
    """

    rate_per_second: float
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_per_second <= 0:
            raise ValueError(f"rate_per_second must be positive, got {self.rate_per_second}")
        if self.start_time < 0:
            raise ValueError(f"start_time must be non-negative, got {self.start_time}")

    def arrival_times(self, n: int, rng: np.random.Generator) -> List[float]:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        gaps = rng.exponential(1.0 / self.rate_per_second, size=n)
        return [float(t) for t in self.start_time + np.cumsum(gaps)]


@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """Workflows arrive in periodic bursts of ``burst_size``.

    Every ``burst_interval_seconds`` a batch of ``burst_size`` workflows is
    submitted (optionally spread over ``jitter_seconds`` of uniform jitter so
    submissions within a burst are not perfectly simultaneous).  This is the
    saturating pattern of campaign-style workloads -- e.g. a parameter sweep
    launched all at once -- and is what exposes head-of-line behaviour in the
    scheduler.
    """

    burst_size: int
    burst_interval_seconds: float
    start_time: float = 0.0
    jitter_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {self.burst_size}")
        if self.burst_interval_seconds <= 0:
            raise ValueError(
                f"burst_interval_seconds must be positive, got {self.burst_interval_seconds}"
            )
        if self.start_time < 0:
            raise ValueError(f"start_time must be non-negative, got {self.start_time}")
        if self.jitter_seconds < 0:
            raise ValueError(f"jitter_seconds must be non-negative, got {self.jitter_seconds}")

    def arrival_times(self, n: int, rng: np.random.Generator) -> List[float]:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        times: List[float] = []
        burst_index = 0
        while len(times) < n:
            base = self.start_time + burst_index * self.burst_interval_seconds
            for _ in range(min(self.burst_size, n - len(times))):
                jitter = float(rng.uniform(0.0, self.jitter_seconds)) if self.jitter_seconds else 0.0
                times.append(base + jitter)
            burst_index += 1
        return sorted(times)


@dataclass(frozen=True)
class ClosedLoopArrivals:
    """A closed loop: at most ``concurrency`` workflows in flight per tenant.

    The first ``concurrency`` workflows are submitted at ``start_time``; each
    subsequent workflow is submitted ``think_time_seconds`` after one of the
    tenant's previous workflows completes.  Unlike the open-loop processes,
    submission times depend on completions, so the contention runner drives
    this process event by event rather than from a precomputed schedule.
    """

    concurrency: int = 1
    think_time_seconds: float = 0.0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.think_time_seconds < 0:
            raise ValueError(
                f"think_time_seconds must be non-negative, got {self.think_time_seconds}"
            )
        if self.start_time < 0:
            raise ValueError(f"start_time must be non-negative, got {self.start_time}")
