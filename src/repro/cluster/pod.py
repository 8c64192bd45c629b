"""Pods: one workload run bound to a hardware (resource) request.

A :class:`Pod` is a plain object: every runtime field is an ordinary
attribute, whether the pod was built directly (tests, examples, feasibility
probes) or by :meth:`~repro.cluster.simulator.ClusterSimulator.submit`.  The
simulator re-integrates a running pod's progress through these attributes
and keeps its tentative finish in two private ones (``_finish_at``,
``_remaining``) that nothing else writes.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional

from repro.hardware import HardwareConfig

__all__ = ["PodPhase", "Pod"]


class PodPhase(str, enum.Enum):
    """Lifecycle phases, a subset of Kubernetes pod phases."""

    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"


class Pod:
    """A scheduled unit of work.

    Attributes
    ----------
    name:
        Unique pod name.
    request:
        Hardware configuration requested (the bandit's chosen arm).
    features:
        The workflow's context features (kept for bookkeeping / post-hoc
        analysis of what ran where).
    application:
        Application name the pod belongs to.
    priority:
        Priority class (higher = more important).  Only the
        :class:`~repro.cluster.scheduler.PriorityScheduler` reads it; the
        FIFO family treats every pod equally.
    submit_time, start_time, finish_time:
        Simulation timestamps (seconds); ``None`` until the corresponding
        transition happens.
    node:
        Name of the node the pod was placed on.
    phase:
        Current lifecycle phase.
    preemptions:
        How many times the pod was preempted (evicted mid-run and requeued).
    wasted_runtime_seconds:
        Run time lost to preemptions: the work is checkpoint-free, so every
        eviction discards the partial execution and the pod restarts from
        scratch.
    work_seconds:
        Ground-truth contention-free runtime of the workload, drawn **once
        at submission** (stable across preemption restarts, so observed
        runtimes cannot depend on scheduling order).
    progress_seconds:
        Work completed so far in the current attempt; reaches
        :attr:`work_seconds` at completion.  Progress advances at
        :attr:`speed` work-seconds per wall second and is re-integrated by
        the simulator whenever the pod's node topology changes.
    speed:
        Current progress rate from the cluster's interference model
        (``None`` until the current attempt's rate is first computed).
    observed_runtime_seconds:
        Wall-clock execution time of the successful attempt -- the runtime
        the platform *observes*.  Equals :attr:`work_seconds` without
        interference; inflated when co-residents slowed the pod down.
    """

    def __init__(
        self,
        name: str,
        request: HardwareConfig,
        features: Optional[Dict[str, float]] = None,
        application: str = "unknown",
        priority: int = 0,
        submit_time: Optional[float] = None,
        start_time: Optional[float] = None,
        finish_time: Optional[float] = None,
        node: Optional[str] = None,
        phase: PodPhase = PodPhase.PENDING,
        preemptions: int = 0,
        wasted_runtime_seconds: float = 0.0,
        work_seconds: Optional[float] = None,
        progress_seconds: float = 0.0,
        speed: Optional[float] = None,
        observed_runtime_seconds: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.request = request
        self.features = {} if features is None else features
        self.application = application
        self.priority = priority
        self.submit_time = submit_time
        self.start_time = start_time
        self.finish_time = finish_time
        self.node = node
        self.phase = phase
        self.preemptions = preemptions
        self.wasted_runtime_seconds = wasted_runtime_seconds
        self.work_seconds = work_seconds
        self.progress_seconds = progress_seconds
        self.speed = speed
        self.observed_runtime_seconds = observed_runtime_seconds
        self.metadata = {} if metadata is None else metadata
        #: wall seconds of the current attempt accumulated at re-integration
        #: points (progress-rate changes); the remainder to the tentative
        #: finish is carried separately so an uninterrupted run reports its
        #: drawn runtime exactly (no ``finish - start`` bit loss on a large
        #: clock)
        self._running_wall_seconds = 0.0
        #: simulation time progress was last integrated to (None while pending)
        self._progress_updated_at = None
        #: tentative finish time at the current rate, and the wall seconds
        #: from the last integration point to it (written only by the
        #: simulator; the remainder feeds :meth:`complete_progress`)
        self._finish_at: Optional[float] = None
        self._remaining = 0.0
        #: ``(time, speed)`` changepoints of the current attempt; the work
        #: conservation property test integrates this piecewise-constant rate
        self.progress_log: list = []
        #: accumulated time spent waiting for capacity (all pending stretches)
        self._waited_seconds = 0.0
        #: when the current pending stretch began (None while running/terminal)
        self._queued_since: Optional[float] = None

    # ------------------------------------------------------------------ #
    def mark_submitted(self, time: float) -> None:
        if self.submit_time is not None:
            raise RuntimeError(f"pod {self.name!r} was already submitted")
        self.submit_time = float(time)
        self._queued_since = float(time)
        self.phase = PodPhase.PENDING

    def mark_running(self, time: float, node: str) -> None:
        if self.phase is not PodPhase.PENDING:
            raise RuntimeError(f"pod {self.name!r} cannot start from phase {self.phase}")
        if self._queued_since is not None:
            self._waited_seconds += float(time) - self._queued_since
            self._queued_since = None
        self.start_time = float(time)
        self.node = node
        self.phase = PodPhase.RUNNING
        self.progress_seconds = 0.0
        self.speed = None
        self._running_wall_seconds = 0.0
        self._progress_updated_at = float(time)
        self.progress_log = []

    def mark_preempted(self, time: float) -> None:
        """Evict a running pod back to the pending queue (checkpoint-free).

        The partial execution is discarded: the elapsed run time is added to
        :attr:`wasted_runtime_seconds` and the pod waits for capacity again
        from scratch.
        """
        if self.phase is not PodPhase.RUNNING:
            raise RuntimeError(f"pod {self.name!r} cannot be preempted from phase {self.phase}")
        self.wasted_runtime_seconds += float(time) - float(self.start_time or 0.0)
        self.preemptions += 1
        self.start_time = None
        self.node = None
        self._queued_since = float(time)
        self.phase = PodPhase.PENDING
        # Checkpoint-free restart: the attempt's partial progress is lost.
        self.progress_seconds = 0.0
        self.speed = None
        self._running_wall_seconds = 0.0
        self._progress_updated_at = None
        self.progress_log = []

    def mark_finished(self, time: float) -> None:
        if self.phase is not PodPhase.RUNNING:
            raise RuntimeError(f"pod {self.name!r} cannot finish from phase {self.phase}")
        self.finish_time = float(time)
        self.phase = PodPhase.SUCCEEDED

    # ------------------------------------------------------------------ #
    # Progress-based execution (driven by the cluster simulator)
    # ------------------------------------------------------------------ #
    def complete_progress(self, remaining_wall: float) -> float:
        """Close out the attempt's progress and return the observed runtime.

        ``remaining_wall`` is the wall time from the last integration point
        to the finish instant, *as scheduled* -- carrying it explicitly
        (rather than re-deriving ``finish - last_update``) keeps the
        uninterrupted case bit-exact: zero accumulated wall plus a remainder
        of ``work_seconds`` reports the drawn runtime verbatim.
        """
        self.progress_seconds = float(self.work_seconds or 0.0)
        self.observed_runtime_seconds = self._running_wall_seconds + float(remaining_wall)
        return self.observed_runtime_seconds

    @property
    def slowdown(self) -> Optional[float]:
        """Observed over contention-free runtime (>= 1 under interference)."""
        if self.observed_runtime_seconds is None or not self.work_seconds:
            return None
        return self.observed_runtime_seconds / self.work_seconds

    # ------------------------------------------------------------------ #
    @property
    def queue_seconds(self) -> Optional[float]:
        """Total time spent pending before (each) start, if the pod ever started.

        For a never-preempted pod this is exactly ``start_time - submit_time``;
        preempted pods accumulate every pending stretch.
        """
        if self.submit_time is None or self.start_time is None:
            return None
        return self._waited_seconds

    @property
    def runtime_seconds(self) -> Optional[float]:
        """Execution time (start to finish), if the pod has finished."""
        if self.start_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.start_time

    def to_dict(self) -> Dict[str, Any]:
        """Flatten into a serialisable dictionary."""
        return {
            "name": self.name,
            "application": self.application,
            "hardware": self.request.name,
            "node": self.node,
            "phase": self.phase.value,
            "priority": self.priority,
            "submit_time": self.submit_time,
            "start_time": self.start_time,
            "finish_time": self.finish_time,
            "queue_seconds": self.queue_seconds,
            "runtime_seconds": self.runtime_seconds,
            "preemptions": self.preemptions,
            "wasted_runtime_seconds": self.wasted_runtime_seconds,
            "work_seconds": self.work_seconds,
            "observed_runtime_seconds": self.observed_runtime_seconds,
            "slowdown": self.slowdown,
            **{f"feature_{k}": v for k, v in self.features.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Pod(name={self.name!r}, request={self.request!r}, "
            f"phase={self.phase!r}, node={self.node!r}, "
            f"work_seconds={self.work_seconds!r}, speed={self.speed!r})"
        )
