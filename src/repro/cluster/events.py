"""A minimal discrete-event engine with O(1) lazy cancellation.

The simulator's hot path is the *frontier protocol*: each node keeps at most
one live ``node_next_finish`` event (the earliest tentative finish among its
residents).  When a topology change moves a node's frontier, the outstanding
event is :meth:`EventQueue.cancel`-ed (a flag flip, no heap surgery) and a
fresh one is pushed.  Dead entries are pruned lazily the next time the heap
head is inspected, so :meth:`pop`, :meth:`peek_time` and :meth:`drain` never
surface a superseded time and never advance the clock past one.

The queue keeps three monotonic counters -- :attr:`~EventQueue.pushed`,
:attr:`~EventQueue.popped` (live events handled) and
:attr:`~EventQueue.skipped` (cancelled entries discarded) -- which
:class:`~repro.cluster.simulator.KernelProfile` reads, so event machinery
regressions show up in ``run-contention --profile``.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.cluster.node import Node

__all__ = [
    "Event",
    "EventQueue",
    "POD_SUBMITTED",
    "NODE_NEXT_FINISH",
    "NODE_PROVISIONED",
    "NODE_DRAIN_CHECK",
]

# The hot event kinds, interned once at import: every dispatch compares the
# popped event's kind against these, and interning makes each comparison a
# pointer check instead of a character scan.
POD_SUBMITTED = sys.intern("pod_submitted")
NODE_NEXT_FINISH = sys.intern("node_next_finish")
NODE_PROVISIONED = sys.intern("node_provisioned")
NODE_DRAIN_CHECK = sys.intern("node_drain_check")


class Event:
    """A timestamped event.

    A plain ``__slots__`` class rather than a dataclass: construction cost is
    pure event-machinery overhead on the simulator's hottest path.  Treat
    instances as immutable except through :meth:`EventQueue.cancel`.

    Attributes
    ----------
    time:
        Simulation time in seconds.
    kind:
        Event name (``"pod_submitted"``, ``"node_next_finish"`` ...).
    payload:
        Data attached to the event.  Frontier events carry ``None`` -- their
        only datum is :attr:`node`, stored as a slot field so the hot path
        allocates no per-event dict.
    seq:
        Tie-breaking sequence number assigned by the queue; events at equal
        times are processed in insertion order.
    node:
        The :class:`~repro.cluster.node.Node` a ``node_next_finish`` event
        belongs to (``None`` for every other kind).
    alive:
        ``False`` once cancelled; dead entries are skipped, not handled.
    """

    __slots__ = ("time", "kind", "payload", "seq", "node", "alive")

    def __init__(
        self,
        time: float,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        seq: int = -1,
        node: Optional["Node"] = None,
    ) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = time
        self.kind = kind
        self.payload = {} if payload is None else payload
        self.seq = seq
        self.node = node
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event(time={self.time!r}, kind={self.kind!r}, "
            f"payload={self.payload!r}, seq={self.seq}, "
            f"node={self.node!r}, alive={self.alive})"
        )


class EventQueue:
    """A priority queue of :class:`Event` ordered by (time, insertion order).

    Supports O(1) cancellation: :meth:`cancel` marks an entry dead in place
    and the heap prunes it lazily.  ``len(queue)`` / ``bool(queue)`` count
    live entries only, so "has work" checks are unaffected by cancelled
    backlog.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._now = 0.0
        self._live = 0
        #: Total events ever scheduled.
        self.pushed = 0
        #: Live events popped (i.e. actually handled).
        self.popped = 0
        #: Cancelled entries discarded while pruning the heap.  Equals the
        #: number of cancels once the queue drains past them.
        self.skipped = 0

    @property
    def now(self) -> float:
        """The time of the most recently popped event (starts at 0)."""
        return self._now

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, time: float, kind: str, **payload: Any) -> Event:
        """Schedule an event at absolute time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        seq = next(self._counter)
        # ``payload`` is the fresh kwargs dict -- no defensive copy needed.
        event = Event(float(time), kind, payload, seq)
        heapq.heappush(self._heap, (event.time, seq, event))
        self._live += 1
        self.pushed += 1
        return event

    def push_frontier(self, time: float, node: "Node") -> Event:
        """Schedule a ``node_next_finish`` event for ``node``.

        The payload-free fast path: the event is built via ``__new__`` with
        ``payload=None`` and the node in a slot field, so re-pushing a
        node's frontier allocates no dict and runs no keyword plumbing.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        seq = next(self._counter)
        event = Event.__new__(Event)
        event.time = float(time)
        event.kind = NODE_NEXT_FINISH
        event.payload = None
        event.seq = seq
        event.node = node
        event.alive = True
        heapq.heappush(self._heap, (event.time, seq, event))
        self._live += 1
        self.pushed += 1
        return event

    def cancel(self, event: Event) -> None:
        """Invalidate a scheduled event in O(1) (idempotent).

        The entry stays in the heap but will be discarded -- counted in
        :attr:`skipped` -- instead of surfaced by :meth:`pop`,
        :meth:`peek_time` or :meth:`drain`.
        """
        if event.alive:
            event.alive = False
            self._live -= 1

    def pop(self) -> Event:
        """Pop and return the next *live* event, advancing the clock to its time.

        Cancelled entries encountered on the way are discarded without
        touching the clock.
        """
        heap = self._heap
        while heap:
            _, _, event = heapq.heappop(heap)
            if not event.alive:
                self.skipped += 1
                continue
            self._now = event.time
            self._live -= 1
            self.popped += 1
            return event
        raise IndexError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when the queue is empty.

        Prunes cancelled heads so a superseded frontier time is never
        reported (callers interleaving external arrivals would otherwise
        wake at meaningless timestamps).
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2].alive:
                return head[0]
            heapq.heappop(heap)
            self.skipped += 1
        return None

    def drain(self, handler: Callable[[Event], None], until: Optional[float] = None) -> int:
        """Pop live events (optionally only up to time ``until``), passing each to ``handler``.

        Returns the number of events processed; cancelled entries are
        discarded silently and do not count.  The handler may push (or
        cancel) events while draining.
        """
        processed = 0
        while self._live:
            next_time = self.peek_time()
            if until is not None and next_time > until:
                break
            handler(self.pop())
            processed += 1
        if until is not None and until > self._now:
            self._now = until
        return processed
