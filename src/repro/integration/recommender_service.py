"""The recommendation service wiring BanditWare to the platform and the cluster.

:class:`RecommendationService` keeps one record per registered application
-- its :class:`~repro.core.BanditWare` recommender, its priority class and
the shard id :class:`~repro.integration.sharding.ShardMap` gave it at
registration -- and one ticket table in global submission order, next to
the application registry, the run-history ledger and the deterministic
ticket counter.  The shard id is recorded and reported, not acted on: it
changes no decision, which ``benchmarks/service_parity_reference.json``
pins at 1-4 shards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.simulator import ClusterSimulator
from repro.core.banditware import BanditWare, Recommendation
from repro.core.rewards import RewardConfig
from repro.core.selection import ToleranceConfig
from repro.hardware import HardwareCatalog
from repro.integration.ndp import ApplicationRegistry, RunHistoryStore
from repro.integration.sharding import ShardMap
from repro.utils.logging import EventLog, NullLog
from repro.utils.rng import SeedLike
from repro.workloads.base import RunRecord

__all__ = ["WorkflowTicket", "RecommendationService"]


@dataclass
class WorkflowTicket:
    """A submitted workflow awaiting completion.

    Attributes
    ----------
    ticket_id:
        Opaque identifier returned by :meth:`RecommendationService.submit_workflow`.
    application:
        Application the workflow belongs to.
    features:
        The workflow's context features.
    recommendation:
        BanditWare's recommendation for this workflow.
    priority:
        Priority class inherited from the application's registration; the
        cluster's priority scheduler may use it for preemption.
    completed:
        Whether :meth:`RecommendationService.complete_workflow` has been called.
    observed_runtime:
        The runtime reported at completion, if any.
    observed_queue_seconds:
        The capacity-wait reported at completion, if any.
    observed_slowdown:
        Observed/planned runtime ratio reported at completion, if the
        execution substrate measures interference (1.0 = the run was not
        perturbed by co-located tenants).
    """

    ticket_id: str
    application: str
    features: Dict[str, float]
    recommendation: Recommendation
    priority: int = 0
    completed: bool = False
    observed_runtime: Optional[float] = None
    observed_queue_seconds: Optional[float] = None
    observed_slowdown: Optional[float] = None


@dataclass(frozen=True)
class _Application:
    """What the service keeps per registered application."""

    recommender: BanditWare
    priority: int
    shard_id: int


class RecommendationService:
    """Per-application BanditWare recommenders behind a platform-style API.

    The service owns one :class:`~repro.core.BanditWare` instance per
    registered application (each application has its own feature space and its
    own runtime behaviour), a shared hardware catalog, the application
    registry, the run-history store, and optionally a cluster backend used by
    :meth:`run_workflow` to execute the recommendation end to end.

    Parameters
    ----------
    catalog:
        Hardware configurations the platform can allocate.
    history:
        Run-history store (created empty when omitted).
    tolerance:
        Default tolerance configuration applied to every application's
        recommender.
    seed:
        Seed shared by the per-application recommenders' exploration.
    log:
        Optional event log of service decisions.
    n_shards:
        Number of shards (an integer >= 1) applications are consistently
        hashed onto (:meth:`shard_for`).  The shard count never changes a
        decision.
    """

    def __init__(
        self,
        catalog: HardwareCatalog,
        history: Optional[RunHistoryStore] = None,
        tolerance: Optional[ToleranceConfig] = None,
        seed: SeedLike = None,
        log: Optional[EventLog] = None,
        n_shards: int = 1,
    ):
        self.catalog = catalog
        self.registry = ApplicationRegistry()
        self.history = history if history is not None else RunHistoryStore()
        self.tolerance = tolerance or ToleranceConfig()
        self._seed = seed
        self.log = log if log is not None else NullLog()
        self.shard_map = ShardMap(n_shards)
        self._applications: Dict[str, _Application] = {}
        # Insertion-ordered, so it is also the global submission order
        # pending_tickets reports.
        self._tickets: Dict[str, WorkflowTicket] = {}
        # Deterministic per-instance ticket counter.  (The seed repository
        # used a module-level itertools counter, which coupled independent
        # service instances' ticket sequences and broke checkpoint/restore;
        # a plain int is per-instance, deterministic and serialisable.)
        self._next_ticket = 1

    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        """Number of shards applications are hashed onto."""
        return self.shard_map.n_shards

    def shard_for(self, application: str) -> int:
        """The shard id of one registered application."""
        return self._application(application).shard_id

    def _application(self, name: str) -> _Application:
        try:
            return self._applications[name]
        except KeyError:
            raise KeyError(
                f"application {name!r} has no recommender; register it first"
            ) from None

    def _issue_ticket_id(self) -> str:
        ticket_id = f"wf-{self._next_ticket:06d}"
        self._next_ticket += 1
        return ticket_id

    # ------------------------------------------------------------------ #
    def register_application(
        self,
        name: str,
        owner: str,
        feature_names: Sequence[str],
        description: str = "",
        warm_start_history: bool = True,
        catalog: Optional[HardwareCatalog] = None,
        tolerance: Optional[ToleranceConfig] = None,
        reward: Optional[RewardConfig] = None,
        priority: int = 0,
    ) -> BanditWare:
        """Register an application and create its recommender.

        When ``warm_start_history`` is true and the history store already
        contains runs of this application, they seed the recommender's per-arm
        models before any online recommendation is made.

        ``catalog`` restricts the application's arm space to a subset of the
        platform's hardware (different applications are eligible for
        different allocations on a shared cluster); ``tolerance`` overrides
        the service-wide tolerance for this application only.  Both default
        to the service-level settings.  ``reward`` selects the application's
        observation shaping (e.g. the queue-aware ``queue_inclusive`` mode);
        ``priority`` is the priority class stamped on the application's
        workflow tickets for priority/preemption scheduling.

        Registration is atomic: the recommender is built and warm-started
        before the application is recorded, so a call that raises -- a
        duplicate feature name, a history lacking a declared feature column,
        a name already taken -- leaves the service as it was.
        """
        recommender = BanditWare(
            catalog=catalog if catalog is not None else self.catalog,
            feature_names=feature_names,
            tolerance=tolerance if tolerance is not None else self.tolerance,
            seed=self._seed,
            reward=reward,
        )
        ingested = None
        if warm_start_history and self.history.records_for(name):
            ingested = recommender.warm_start(self.history.frame_for(name))
        self.registry.register(name, owner, recommender.feature_names, description)
        self._applications[name] = _Application(
            recommender, int(priority), self.shard_map.shard_for(name)
        )
        if self.log.enabled:
            if ingested is not None:
                self.log.record("service", "warm_start", application=name, rows=ingested)
            self.log.record("service", "application_registered", application=name, owner=owner)
        return recommender

    def recommender_for(self, application: str) -> BanditWare:
        """The BanditWare instance serving one application."""
        return self._application(application).recommender

    def priority_for(self, application: str) -> int:
        """The priority class of one registered application."""
        return self._application(application).priority

    # ------------------------------------------------------------------ #
    def submit_workflow(self, application: str, features: Dict[str, float]) -> WorkflowTicket:
        """Ask for a hardware recommendation for one incoming workflow.

        Every feature value is converted to a float before the recommender
        is asked, so a request that is rejected -- an unknown application, a
        non-numeric value, a missing or non-finite feature -- changes no
        state: no ticket is issued and the exploration schedule does not move.
        """
        app = self._application(application)
        features = {k: float(v) for k, v in features.items()}
        recommendation = app.recommender.recommend(features)
        ticket = WorkflowTicket(
            ticket_id=self._issue_ticket_id(),
            application=application,
            features=features,
            recommendation=recommendation,
            priority=app.priority,
        )
        self._tickets[ticket.ticket_id] = ticket
        if self.log.enabled:
            self.log.record(
                "service",
                "recommendation",
                ticket=ticket.ticket_id,
                application=application,
                hardware=recommendation.hardware.name,
                explored=recommendation.explored,
            )
        return ticket

    def submit_workflows(
        self, application: str, features_batch: Sequence[Dict[str, float]]
    ) -> List[WorkflowTicket]:
        """Batch recommendations for many workflows of one application.

        Decisions are identical to calling :meth:`submit_workflow` once per
        element in order (the recommender's policy state advances one step
        per workflow); tickets are issued in submission order.  The whole
        batch is converted and checked before the first recommendation, so a
        rejected batch changes no state.
        """
        app = self._application(application)
        features_batch = [
            {k: float(v) for k, v in features.items()} for features in features_batch
        ]
        recommendations = app.recommender.recommend_batch(features_batch)
        tickets: List[WorkflowTicket] = []
        for features, recommendation in zip(features_batch, recommendations):
            ticket = WorkflowTicket(
                ticket_id=self._issue_ticket_id(),
                application=application,
                features=features,
                recommendation=recommendation,
                priority=app.priority,
            )
            self._tickets[ticket.ticket_id] = ticket
            tickets.append(ticket)
        if self.log.enabled:
            self.log.record(
                "service",
                "recommendation_batch",
                application=application,
                tickets=len(tickets),
                hardware=[t.recommendation.hardware.name for t in tickets],
            )
        return tickets

    def complete_workflows(self, completions: Sequence[tuple]) -> None:
        """Report many completions at once.

        Each entry is ``(ticket_id, runtime_seconds)``,
        ``(ticket_id, runtime_seconds, queue_seconds)`` or
        ``(ticket_id, runtime_seconds, queue_seconds, slowdown)`` -- the
        optional third element reports the workflow's capacity wait for
        applications in the queue-aware reward mode; the optional fourth is
        the observed/planned runtime ratio an interference-aware cluster
        measured, which shapes the learning signal for applications in the
        ``slowdown_inclusive`` reward mode (and is recorded on the ticket
        for auditing either way -- in the default mode the recommender
        already learns the inflation through the observed runtime itself).

        Observations are fed to each application's recommender through
        :meth:`BanditWare.observe_batch` (one model refit per arm instead of
        one per ticket); the final recommender state, run history, and ticket
        bookkeeping are exactly those of sequential
        :meth:`complete_workflow` calls in the same order.

        A pre-flight checks the whole batch -- entries of 2-4 elements,
        tickets known, uncompleted and unique, runtimes and queue delays
        finite and non-negative, slowdowns finite and positive -- before any
        application's recommender changes.  This is the cross-application
        atomicity check: a rejected batch leaves every recommender and ticket
        untouched and can be retried once the bad entry is fixed.
        """
        resolved = []
        seen = set()
        for entry in completions:
            if not 2 <= len(entry) <= 4:
                raise ValueError(
                    f"completion entry {entry!r} has {len(entry)} elements; expected "
                    "(ticket_id, runtime_seconds[, queue_seconds[, slowdown]])"
                )
            ticket_id, runtime_seconds = entry[0], entry[1]
            queue_seconds = entry[2] if len(entry) > 2 else 0.0
            slowdown = entry[3] if len(entry) > 3 else None
            ticket = self.ticket(ticket_id)  # raises on unknown ids
            if ticket_id in seen:
                raise ValueError(f"ticket {ticket_id!r} appears twice in the batch")
            seen.add(ticket_id)
            if ticket.completed:
                raise ValueError(
                    f"ticket {ticket_id!r} was already completed "
                    f"(observed runtime {ticket.observed_runtime}s); completions "
                    "are observed exactly once and double reports are rejected"
                )
            runtime = float(runtime_seconds)
            if not math.isfinite(runtime) or runtime < 0:
                raise ValueError(
                    f"ticket {ticket_id!r} reports an invalid runtime {runtime_seconds!r}; "
                    "runtimes must be finite and non-negative"
                )
            queue = float(queue_seconds)
            if not math.isfinite(queue) or queue < 0:
                raise ValueError(
                    f"ticket {ticket_id!r} reports an invalid queue delay {queue_seconds!r}; "
                    "queue delays must be finite and non-negative"
                )
            if slowdown is not None:
                slowdown = float(slowdown)
                if not math.isfinite(slowdown) or slowdown <= 0:
                    raise ValueError(
                        f"ticket {ticket_id!r} reports an invalid slowdown {slowdown!r}; "
                        "slowdowns must be finite and positive"
                    )
            resolved.append((ticket, runtime, queue, slowdown))
        by_application: Dict[str, List[tuple]] = {}
        for entry in resolved:
            by_application.setdefault(entry[0].application, []).append(entry)
        for application, batch in by_application.items():
            self._applications[application].recommender.observe_batch(
                [ticket.features for ticket, _, _, _ in batch],
                [ticket.recommendation.hardware for ticket, _, _, _ in batch],
                [runtime for _, runtime, _, _ in batch],
                queues_seconds=[queue for _, _, queue, _ in batch],
                slowdowns=[slowdown for _, _, _, slowdown in batch],
            )
        for ticket, runtime, queue, slowdown in resolved:
            ticket.completed = True
            ticket.observed_runtime = runtime
            ticket.observed_queue_seconds = queue
            ticket.observed_slowdown = slowdown
            self.history.add(
                RunRecord(
                    run_id=ticket.ticket_id,
                    application=ticket.application,
                    hardware=ticket.recommendation.hardware.name,
                    runtime_seconds=runtime,
                    features=ticket.features,
                )
            )
        if self.log.enabled:
            self.log.record("service", "workflow_completed_batch", tickets=len(resolved))

    def complete_workflow(
        self,
        ticket_id: str,
        runtime_seconds: float,
        queue_seconds: float = 0.0,
        slowdown: Optional[float] = None,
    ) -> None:
        """Report a workflow's observed runtime so the recommender can learn.

        ``queue_seconds`` optionally reports the workflow's capacity wait;
        it shapes the learning signal only for applications registered with
        the queue-aware reward mode.  ``slowdown`` optionally reports the
        observed/planned runtime ratio measured by an interference-aware
        cluster; it shapes the signal only in the ``slowdown_inclusive``
        reward mode (and is recorded on the ticket for auditing).

        Completing an already-completed ticket raises ``ValueError``: a
        double report would silently re-observe the runtime and skew the
        application's models.  The runtime, queue delay and slowdown are
        checked once, by :meth:`BanditWare.observe`, before anything changes.
        """
        ticket = self.ticket(ticket_id)
        if ticket.completed:
            raise ValueError(
                f"ticket {ticket_id!r} was already completed "
                f"(observed runtime {ticket.observed_runtime}s); completions "
                "are observed exactly once and double reports are rejected"
            )
        self._applications[ticket.application].recommender.observe(
            ticket.features,
            ticket.recommendation.hardware,
            runtime_seconds,
            queue_seconds=queue_seconds,
            slowdown=slowdown,
        )
        ticket.completed = True
        ticket.observed_runtime = float(runtime_seconds)
        ticket.observed_queue_seconds = float(queue_seconds)
        ticket.observed_slowdown = float(slowdown) if slowdown is not None else None
        self.history.add(
            RunRecord(
                run_id=ticket.ticket_id,
                application=ticket.application,
                hardware=ticket.recommendation.hardware.name,
                runtime_seconds=float(runtime_seconds),
                features=ticket.features,
            )
        )
        if self.log.enabled:
            self.log.record(
                "service",
                "workflow_completed",
                ticket=ticket_id,
                runtime=float(runtime_seconds),
            )

    def run_workflow(
        self,
        application: str,
        features: Dict[str, float],
        cluster: ClusterSimulator,
    ) -> WorkflowTicket:
        """End-to-end convenience: recommend, execute on the cluster, learn."""
        ticket = self.submit_workflow(application, features)
        run = cluster.run_workload(features, ticket.recommendation.hardware)
        self.complete_workflow(ticket.ticket_id, run.record.runtime_seconds)
        return ticket

    # ------------------------------------------------------------------ #
    def pending_tickets(self) -> List[WorkflowTicket]:
        """Tickets that have been submitted but not completed (submission order)."""
        return [ticket for ticket in self._tickets.values() if not ticket.completed]

    def ticket(self, ticket_id: str) -> WorkflowTicket:
        try:
            return self._tickets[ticket_id]
        except KeyError:
            raise KeyError(f"unknown ticket {ticket_id!r}") from None

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> "ServiceCheckpoint":
        """Snapshot the whole service into a versioned, restorable checkpoint.

        See :mod:`repro.integration.checkpoint` for the format.  The
        checkpoint captures every application's recommender (matrices and
        policy/exploration state), priority and shard id, the ticket table,
        the registry, the run-history ledger and the ticket counter;
        :func:`~repro.integration.checkpoint.restore_service` rebuilds a
        service that continues **bit-identically** to this one.
        """
        from repro.integration.checkpoint import checkpoint_service

        return checkpoint_service(self)

    @classmethod
    def restore(cls, checkpoint, log: Optional[EventLog] = None) -> "RecommendationService":
        """Rebuild a service from a :class:`ServiceCheckpoint` (or a path)."""
        from repro.integration.checkpoint import ServiceCheckpoint, restore_service

        if not isinstance(checkpoint, ServiceCheckpoint):
            checkpoint = ServiceCheckpoint.load(checkpoint)
        return restore_service(checkpoint, log=log)
