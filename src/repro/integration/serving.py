"""Admission control in front of the recommendation service.

:class:`AdmissionController` keeps one bounded FIFO queue per shard (the
shard an application was hashed onto, see
:meth:`~repro.integration.recommender_service.RecommendationService.shard_for`).
A full queue rejects the request with :class:`BackpressureError` carrying an
explicit ``retry_after_seconds`` estimate -- requests are *never* silently
dropped, and an admitted request is never evicted.

It is a synchronous building block: the event-driven load harness
(:mod:`repro.evaluation.service_load`) composes it into a full
arrival/queue/drain loop that hands each drained batch to the service's
``submit_workflows`` / ``complete_workflows`` entry points.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = ["BackpressureError", "ShardQueue", "AdmissionController"]


class BackpressureError(RuntimeError):
    """A shard's admission queue is full; retry after ``retry_after_seconds``.

    Raised instead of silently dropping the request: the caller owns the
    retry decision, and the error carries everything needed to make it --
    the saturated shard, its queue depth/capacity, and the controller's
    estimate of when a slot frees up (queue depth over the shard's drain
    rate).
    """

    def __init__(
        self,
        shard_id: int,
        queue_depth: int,
        capacity: int,
        retry_after_seconds: float,
    ):
        self.shard_id = int(shard_id)
        self.queue_depth = int(queue_depth)
        self.capacity = int(capacity)
        self.retry_after_seconds = float(retry_after_seconds)
        super().__init__(
            f"shard {self.shard_id} admission queue is full "
            f"({self.queue_depth}/{self.capacity}); retry after "
            f"{self.retry_after_seconds:.3f}s"
        )


class ShardQueue:
    """A bounded FIFO admission queue for one shard, with traffic counters."""

    def __init__(self, shard_id: int, capacity: int):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.shard_id = int(shard_id)
        self.capacity = int(capacity)
        self._items: Deque = deque()
        self.admitted = 0
        self.rejected = 0
        self.drained = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item) -> None:
        """Enqueue one admitted request (the controller checks capacity)."""
        self._items.append(item)
        self.admitted += 1

    def pop_batch(self, max_batch: int) -> List:
        """Dequeue up to ``max_batch`` requests in FIFO order."""
        batch: List = []
        while self._items and len(batch) < max_batch:
            batch.append(self._items.popleft())
        self.drained += len(batch)
        return batch


class AdmissionController:
    """Bounded per-shard queues with explicit reject-with-retry-after.

    Parameters
    ----------
    n_shards:
        Number of shard queues to maintain (one per service shard).
    capacity:
        Maximum queued requests per shard.
    drain_rate_per_second:
        Estimated per-shard service rate used to compute
        ``retry_after_seconds`` on rejection.  When unknown, the controller
        reports the queue depth in "requests to drain" units (rate 1.0).
    """

    def __init__(
        self,
        n_shards: int,
        capacity: int = 256,
        drain_rate_per_second: Optional[float] = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        rate = 1.0 if drain_rate_per_second is None else float(drain_rate_per_second)
        if not rate > 0:
            raise ValueError(f"drain_rate_per_second must be positive, got {rate}")
        self.drain_rate_per_second = rate
        self._queues = [ShardQueue(i, capacity) for i in range(int(n_shards))]

    @property
    def queues(self) -> List[ShardQueue]:
        return list(self._queues)

    def queue(self, shard_id: int) -> ShardQueue:
        return self._queues[shard_id]

    def depth(self, shard_id: int) -> int:
        return len(self._queues[shard_id])

    def admit(self, shard_id: int, item) -> None:
        """Admit ``item`` to the shard's queue or raise :class:`BackpressureError`.

        The contract is all-or-nothing: an admitted request sits in the
        queue until drained; a rejected request leaves no trace beyond the
        rejection counter.
        """
        queue = self._queues[shard_id]
        if queue.full:
            queue.rejected += 1
            raise BackpressureError(
                shard_id=shard_id,
                queue_depth=len(queue),
                capacity=queue.capacity,
                retry_after_seconds=len(queue) / self.drain_rate_per_second,
            )
        queue.push(item)

    def pop_batch(self, shard_id: int, max_batch: int) -> List:
        return self._queues[shard_id].pop_batch(max_batch)

    def stats(self) -> Dict[int, Dict[str, int]]:
        """Per-shard admitted/rejected/drained/depth counters."""
        return {
            q.shard_id: {
                "admitted": q.admitted,
                "rejected": q.rejected,
                "drained": q.drained,
                "depth": len(q),
            }
            for q in self._queues
        }
