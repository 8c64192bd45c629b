"""Pods: one workload run bound to a hardware (resource) request.

:class:`Pod` is a *facade* since the array-kernel refactor: a pod
constructed directly (tests, examples, probes) stores its state in plain
attributes and behaves exactly as the pre-refactor dataclass did; a pod
adopted by a :class:`~repro.cluster.state.ClusterState` (which the
simulator does at submission) keeps its hot numeric fields -- work,
progress, speed, wall-clock accumulators -- in the state's flat arrays so
the simulator can batch-update thousands of pods without attribute-walking
Python objects.  The public surface (constructor signature, attributes,
methods) is unchanged either way.
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


def _hot(local_name: str, array_name: str):
    """An array-backed-when-bound float property (``None`` <-> ``NaN``)."""

    def getter(self):
        state = self._state
        if state is None:
            return getattr(self, local_name)
        value = getattr(state, array_name)[self._index]
        # NaN encodes None; NaN != NaN makes the check branch-free.
        return None if value != value else float(value)

    def setter(self, value):
        state = self._state
        if state is None:
            object.__setattr__(self, local_name, value)
        else:
            getattr(state, array_name)[self._index] = (
                float("nan") if value is None else value
            )

    return property(getter, setter)


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
        # Facade plumbing must exist before any hot-property assignment.
        self._state = None
        self._index = -1
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
        #: ``(time, speed)`` changepoints of the current attempt; the work
        #: conservation property test integrates this piecewise-constant rate
        self.progress_log: list = []
        #: accumulated time spent waiting for capacity (all pending stretches)
        self._waited_seconds = 0.0
        #: when the current pending stretch began (None while running/terminal)
        self._queued_since: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Array-backed hot fields (plain attributes until the simulator adopts
    # the pod into a ClusterState)
    # ------------------------------------------------------------------ #
    work_seconds = _hot("_local_work", "work")
    progress_seconds = _hot("_local_progress", "progress")
    speed = _hot("_local_speed", "speed")
    _running_wall_seconds = _hot("_local_running_wall", "running_wall")
    _progress_updated_at = _hot("_local_updated_at", "updated_at")

    def _bind(self, state, index: int) -> None:
        """Adopt this pod into ``state`` (called by ``ClusterState``).

        The caller has already copied the current attribute values into the
        arrays at ``index``; from here on the hot properties read/write the
        arrays.
        """
        self._state = state
        self._index = index

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
    def set_speed(self, time: float, new_speed: float) -> None:
        """Integrate progress up to ``time`` at the current rate, then switch.

        The progress rate is piecewise constant between topology changes, so
        integrating lazily -- only when the rate actually changes -- is
        exact.  The first call of an attempt (``speed is None``) merely
        records the initial rate.
        """
        time = float(time)
        if self.phase is not PodPhase.RUNNING:
            raise RuntimeError(f"pod {self.name!r} is not running; cannot set a progress rate")
        if self.speed is not None:
            since = self._progress_updated_at if self._progress_updated_at is not None else time
            elapsed = time - since
            self.progress_seconds += elapsed * self.speed
            self._running_wall_seconds += elapsed
        self._progress_updated_at = time
        self.speed = float(new_speed)
        self.progress_log.append((time, float(new_speed)))

    def remaining_wall_seconds(self) -> float:
        """Wall-clock seconds to completion at the current rate."""
        if self.work_seconds is None or self.speed is None:
            raise RuntimeError(f"pod {self.name!r} has no work/rate; was it started?")
        return max(self.work_seconds - self.progress_seconds, 0.0) / self.speed

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

    @property
    def is_terminal(self) -> bool:
        return self.phase is PodPhase.SUCCEEDED

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
