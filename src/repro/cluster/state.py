"""The structure-of-arrays cluster kernel: flat runtime state + profiling.

Before this module every hot path of the cluster simulator walked Python
objects: a topology change re-integrated each resident pod's progress one
attribute access at a time, and the interference model was consulted pod by
pod with a freshly built co-resident list (O(k^2) work per change on a node
with k residents).  :class:`ClusterState` stores the hot runtime state of
pods and nodes in flat numpy arrays instead, so re-integration, tentative
finish computation, interference speed evaluation and placement scoring all
become batched array operations.

**Facade contract.**  :class:`~repro.cluster.pod.Pod` and
:class:`~repro.cluster.node.Node` remain the public API; they become thin
views over these arrays once *adopted* (bound) by a state store:

* A pod/node constructed directly (tests, examples, feasibility probes,
  autoscaler deficit bins) is **unbound**: it keeps plain attribute storage
  and behaves exactly as before this refactor.
* The simulator adopts every node at construction and every pod at
  submission.  Adoption copies the current attribute values into the arrays;
  from then on the pod facade's hot fields (progress/speed/work/
  wall-clock accumulators) read and write the arrays, so object-level
  mutation and array-level batch updates can never disagree, and node
  ``allocate``/``release`` keep the per-node resident index lists current.
* External code may freely *read* any facade attribute and may mutate pods
  and nodes through their public methods (``allocate``/``release``,
  ``mark_*``, ``set_speed``); it must not reach into ``ClusterState``
  arrays directly -- array layout is an implementation detail of the
  kernel and may change between versions.

**Exactness.**  The arrays hold the same float64 values the per-object
engine held; batched updates use elementwise operations in the same order
as the scalar code, so results are bit-identical on every registered
scenario (pinned by the scenario fingerprints in
``benchmarks/frontier_parity_reference.json``).

``NaN`` encodes ``None`` for the optional per-pod floats (``speed`` and the
last-integration timestamp): the simulator's rate-unchanged check
(``pod.speed == speed``) is never taken for an unset rate, and ``NaN != x``
preserves exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (facades import us)
    from repro.cluster.node import Node
    from repro.cluster.pod import Pod

__all__ = ["ClusterState", "KernelProfile"]


@dataclass
class KernelProfile:
    """Wall-clock accounting of the simulator's hot paths.

    Enabled via ``ClusterSimulator.enable_profiling()`` (the CLI's
    ``run-contention --profile`` flag); the counters make hot-path
    regressions diagnosable without re-running cProfile: a jump in
    ``reintegration_seconds`` points at the kernel, ``placement_seconds``
    at the policy, ``scheduling_seconds`` at the queue discipline.
    """

    #: Seconds spent re-integrating progress / rescheduling tentative
    #: finishes on topology changes (:meth:`ClusterSimulator._reschedule_node`).
    reintegration_seconds: float = 0.0
    #: Seconds spent in schedule passes over the pending queue, *including*
    #: placement (placement is also reported separately below).
    scheduling_seconds: float = 0.0
    #: Seconds spent inside placement decisions (``scheduler.schedule`` /
    #: ``select_node`` calls).
    placement_seconds: float = 0.0
    events_processed: int = 0
    reschedule_calls: int = 0
    pods_rescheduled: int = 0
    schedule_passes: int = 0
    placement_calls: int = 0
    #: Heap traffic, mirrored from :class:`~repro.cluster.events.EventQueue`:
    #: total events scheduled, live events handled, and cancelled (superseded
    #: frontier) entries discarded without handling.  Under the per-node
    #: frontier protocol ``events_pushed`` stays O(completions +
    #: topology-changes) instead of O(pods x topology-changes).
    events_pushed: int = 0
    events_popped: int = 0
    events_skipped: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "reintegration_seconds": self.reintegration_seconds,
            "scheduling_seconds": self.scheduling_seconds,
            "placement_seconds": self.placement_seconds,
            "events_processed": float(self.events_processed),
            "reschedule_calls": float(self.reschedule_calls),
            "pods_rescheduled": float(self.pods_rescheduled),
            "schedule_passes": float(self.schedule_passes),
            "placement_calls": float(self.placement_calls),
            "events_pushed": float(self.events_pushed),
            "events_popped": float(self.events_popped),
            "events_skipped": float(self.events_skipped),
        }

    def merge(self, other: "KernelProfile") -> None:
        """Accumulate another profile into this one (multi-run aggregation)."""
        self.reintegration_seconds += other.reintegration_seconds
        self.scheduling_seconds += other.scheduling_seconds
        self.placement_seconds += other.placement_seconds
        self.events_processed += other.events_processed
        self.reschedule_calls += other.reschedule_calls
        self.pods_rescheduled += other.pods_rescheduled
        self.schedule_passes += other.schedule_passes
        self.placement_calls += other.placement_calls
        self.events_pushed += other.events_pushed
        self.events_popped += other.events_popped
        self.events_skipped += other.events_skipped

    @staticmethod
    def clock() -> float:
        return time.perf_counter()


class ClusterState:
    """Flat array storage for one simulator's pods and nodes.

    Pod arrays (index = adoption order, grown by amortised doubling):

    ``work``
        Ground-truth work seconds (NaN until drawn).
    ``progress``
        Work seconds completed in the current attempt.
    ``speed``
        Current progress rate (NaN encodes "not yet computed").
    ``updated_at``
        Simulation time progress was last integrated to (NaN while pending).
    ``running_wall``
        Wall seconds of the current attempt accumulated at re-integration
        points.
    ``req_cpus`` / ``req_mem`` / ``req_gpus``
        The pod's resource request, pre-extracted for batched interference
        and placement math.
    ``finish_at``
        Tentative finish time at the current rate (NaN until first
        computed).  The per-node minimum over residents is the node's
        *finish frontier* -- the simulator schedules exactly one
        ``node_next_finish`` event at that time and takes the argmin again
        when it fires.
    ``remaining``
        Wall seconds from the last re-integration point to the tentative
        finish.  Kept alongside ``finish_at`` (rather than recomputed as
        ``finish_at - now``) so an uninterfered run reports its drawn
        runtime bit-for-bit: the subtraction loses low-order bits once the
        clock is large.

    Node slots (index = adoption order; slots are never reused, so a
    drained node's slot stays empty):

    ``residents``
        Per-slot list of resident **pod indices** in allocation order --
        the co-residency structure every batched interference/placement
        evaluation gathers from.
    """

    def __init__(self, pod_capacity: int = 64):
        n = max(int(pod_capacity), 1)
        self.n_pods = 0
        self.work = np.full(n, np.nan)
        self.progress = np.zeros(n)
        self.speed = np.full(n, np.nan)
        self.updated_at = np.full(n, np.nan)
        self.running_wall = np.zeros(n)
        self.req_cpus = np.zeros(n, dtype=np.int64)
        self.req_mem = np.zeros(n)
        self.req_gpus = np.zeros(n, dtype=np.int64)
        self.finish_at = np.full(n, np.nan)
        self.remaining = np.zeros(n)
        self.pods: List["Pod"] = []
        self.pod_index: Dict[str, int] = {}

        self.n_nodes = 0
        self.residents: List[List[int]] = []
        self.nodes: List[Optional["Node"]] = []
        self.node_slot_by_name: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Pods
    # ------------------------------------------------------------------ #
    def _grow_pods(self, needed: int) -> None:
        size = len(self.work)
        if needed <= size:
            return
        new = max(needed, size * 2)
        grow_f = lambda a, fill: np.concatenate(  # noqa: E731 - local helper
            [a, np.full(new - size, fill, dtype=a.dtype)]
        )
        self.work = grow_f(self.work, np.nan)
        self.progress = grow_f(self.progress, 0.0)
        self.speed = grow_f(self.speed, np.nan)
        self.updated_at = grow_f(self.updated_at, np.nan)
        self.running_wall = grow_f(self.running_wall, 0.0)
        self.req_cpus = grow_f(self.req_cpus, 0)
        self.req_mem = grow_f(self.req_mem, 0.0)
        self.req_gpus = grow_f(self.req_gpus, 0)
        self.finish_at = grow_f(self.finish_at, np.nan)
        self.remaining = grow_f(self.remaining, 0.0)

    def adopt_pod(self, pod: "Pod") -> int:
        """Bind ``pod`` to this store, copying its current hot state in."""
        if pod.name in self.pod_index:
            raise ValueError(f"pod {pod.name!r} is already adopted by this state")
        index = self.n_pods
        self._grow_pods(index + 1)
        # Snapshot the facade's current (unbound) values before flipping it
        # to array-backed storage.
        work = pod.work_seconds
        speed = pod.speed
        updated = pod._progress_updated_at
        self.work[index] = np.nan if work is None else work
        self.progress[index] = pod.progress_seconds
        self.speed[index] = np.nan if speed is None else speed
        self.updated_at[index] = np.nan if updated is None else updated
        self.running_wall[index] = pod._running_wall_seconds
        self.req_cpus[index] = pod.request.cpus
        self.req_mem[index] = pod.request.memory_gb
        self.req_gpus[index] = pod.request.gpus
        self.finish_at[index] = np.nan
        self.remaining[index] = 0.0
        self.pods.append(pod)
        self.pod_index[pod.name] = index
        self.n_pods = index + 1
        pod._bind(self, index)
        return index

    # ------------------------------------------------------------------ #
    # Nodes
    # ------------------------------------------------------------------ #
    def adopt_node(self, node: "Node") -> int:
        """Bind ``node`` to this store, indexing its current residents."""
        if node.name in self.node_slot_by_name:
            raise ValueError(f"node {node.name!r} is already adopted by this state")
        slot = self.n_nodes
        # Allocations made before adoption (not the simulator's path, but
        # legal on the public Node API) have no adopted pods to index.
        self.residents.append(
            [self.pod_index[name] for name in node.allocations if name in self.pod_index]
        )
        self.nodes.append(node)
        self.node_slot_by_name[node.name] = slot
        self.n_nodes = slot + 1
        node._bind(self, slot)
        return slot

    def release_node(self, node: "Node") -> None:
        """Mark a drained node's slot dead (slots are never reused)."""
        slot = self.node_slot_by_name.pop(node.name, -1)
        if slot < 0:
            return
        self.residents[slot] = []
        self.nodes[slot] = None
        node._unbind()

    # ------------------------------------------------------------------ #
    # Allocation bookkeeping (called by bound Node facades)
    # ------------------------------------------------------------------ #
    def on_allocate(self, slot: int, pod_name: str) -> None:
        index = self.pod_index.get(pod_name)
        if index is not None:
            self.residents[slot].append(index)

    def on_release(self, slot: int, pod_name: str) -> None:
        index = self.pod_index.get(pod_name)
        if index is not None:
            try:
                self.residents[slot].remove(index)
            except ValueError:  # pragma: no cover - defensive
                pass

    # ------------------------------------------------------------------ #
    def resident_requests(self, slot: int):
        """``(indices, cpus, mem, gpus)`` arrays for a node's residents."""
        idx = np.asarray(self.residents[slot], dtype=np.intp)
        return idx, self.req_cpus[idx], self.req_mem[idx], self.req_gpus[idx]
