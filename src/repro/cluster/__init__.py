"""A small Kubernetes-like cluster execution simulator.

The paper schedules workflows on the National Data Platform's geo-distributed
Kubernetes cluster; this package is the stand-in substrate that "executes"
a workload on the hardware configuration BanditWare selected and reports the
observed runtime back (see DESIGN.md, "Substitutions").

Components:

* :mod:`~repro.cluster.events` -- a discrete-event engine (priority queue of
  timestamped events).
* :mod:`~repro.cluster.node` -- cluster nodes with CPU/memory/GPU capacity and
  allocation accounting.
* :mod:`~repro.cluster.pod` -- pods: a workload run bound to a resource
  request (a :class:`~repro.hardware.HardwareConfig`) with a lifecycle
  (pending → running → completed).
* :mod:`~repro.cluster.scheduler` -- the *ordering* axis ("which pod
  next"): FIFO (head-of-line blocking), backfill (skip-ahead) and
  priority/preemption queue disciplines.
* :mod:`~repro.cluster.placement` -- the *placement* axis ("which node"):
  pluggable :class:`PlacementPolicy` implementations (:class:`FirstFit`,
  :class:`BestFit`, :class:`WorstFit` spread, :class:`Pack`,
  interference-aware :class:`LeastSlowdown`) that any scheduler composes
  with.
* :mod:`~repro.cluster.autoscaler` -- :class:`AutoscalingNodePool`, an
  elastic node pool with provisioning delay and idle-node drain.
* :mod:`~repro.cluster.interference` -- pluggable interference models
  (:class:`NoInterference`, :class:`LinearSlowdown`,
  :class:`CapacityContention`): co-located pods slow each other's progress
  rate down.
* :mod:`~repro.cluster.simulator` -- :class:`ClusterSimulator`, which ties the
  pieces together and exposes the ``submit → run → observe runtime`` loop the
  online recommender drives.  Execution is progress-based: pods advance at
  the interference model's rate, every topology change re-integrates the
  node's residents, and each node keeps one live finish event at its
  earliest tentative finish.  :class:`KernelProfile` accounts where
  simulation wall-time goes.  Pods and nodes are plain objects; the
  simulator's node-name -> running-pods map is the one co-residency
  record.
"""

from repro.cluster.autoscaler import AutoscalingNodePool, ScaleEvent
from repro.cluster.events import Event, EventQueue
from repro.cluster.interference import (
    CapacityContention,
    InterferenceModel,
    LinearSlowdown,
    NoInterference,
)
from repro.cluster.node import Node, InsufficientCapacityError
from repro.cluster.placement import (
    BestFit,
    FirstFit,
    LeastSlowdown,
    Pack,
    PlacementContext,
    PlacementPolicy,
    WorstFit,
    PLACEMENT_POLICIES,
    build_placement,
)
from repro.cluster.pod import Pod, PodPhase
from repro.cluster.scheduler import (
    BackfillScheduler,
    FIFOScheduler,
    PreemptionDecision,
    PriorityScheduler,
    SchedulingDecision,
)
from repro.cluster.simulator import ClusterSimulator, CompletedRun, KernelProfile

__all__ = [
    "Event",
    "EventQueue",
    "InterferenceModel",
    "NoInterference",
    "LinearSlowdown",
    "CapacityContention",
    "Node",
    "InsufficientCapacityError",
    "PlacementPolicy",
    "PlacementContext",
    "FirstFit",
    "BestFit",
    "WorstFit",
    "Pack",
    "LeastSlowdown",
    "PLACEMENT_POLICIES",
    "build_placement",
    "Pod",
    "PodPhase",
    "FIFOScheduler",
    "BackfillScheduler",
    "PriorityScheduler",
    "PreemptionDecision",
    "SchedulingDecision",
    "AutoscalingNodePool",
    "ScaleEvent",
    "ClusterSimulator",
    "CompletedRun",
    "KernelProfile",
]
