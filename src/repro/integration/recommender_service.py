"""The recommendation service wiring BanditWare to the platform and the cluster.

Since the sharded serving refactor the service is a **facade** over
per-application :class:`~repro.integration.sharding.ServiceShard`\\ s: a
:class:`~repro.integration.sharding.ShardMap` consistently hashes each
application onto one of ``n_shards`` independent shards, each owning its
applications' recommenders, ticket table and published model snapshots.
Cross-shard concerns stay here: the application registry, the run-history
ledger, deterministic ticket-id issue, and batch-completion pre-flight
validation that spans all shards before any shard mutates.

The facade API -- and its observable behaviour, decision for decision -- is
identical to the pre-refactor single-process service for every shard count
(pinned against ``benchmarks/service_parity_reference.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.simulator import ClusterSimulator
from repro.core.banditware import BanditWare, ModelSnapshot, Recommendation
from repro.core.rewards import RewardConfig
from repro.core.selection import ToleranceConfig
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.integration.ndp import ApplicationRegistry, RunHistoryStore
from repro.integration.sharding import ServiceShard, ShardMap
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


class RecommendationService:
    """Per-application BanditWare recommenders behind a platform-style API.

    The service owns one :class:`~repro.core.BanditWare` instance per
    registered application (each application has its own feature space and its
    own runtime behaviour), a shared hardware catalog, the run-history store,
    and optionally a cluster backend used by :meth:`run_workflow` to execute
    the recommendation end to end.  Application state lives in ``n_shards``
    independent :class:`~repro.integration.sharding.ServiceShard`\\ s behind
    this facade; requests for different applications on different shards
    share no mutable state.

    Parameters
    ----------
    catalog:
        Hardware configurations the platform can allocate.
    registry:
        Application registry (created empty when omitted).
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
        Number of service shards applications are consistently hashed onto.
        The shard count never changes observable behaviour -- only which
        state can be served/updated concurrently.
    """

    def __init__(
        self,
        catalog: HardwareCatalog,
        registry: Optional[ApplicationRegistry] = None,
        history: Optional[RunHistoryStore] = None,
        tolerance: Optional[ToleranceConfig] = None,
        seed: SeedLike = None,
        log: Optional[EventLog] = None,
        n_shards: int = 1,
    ):
        self.catalog = catalog
        self.registry = registry or ApplicationRegistry()
        self.history = history or RunHistoryStore()
        self.tolerance = tolerance or ToleranceConfig()
        self._seed = seed
        self.log = log if log is not None else NullLog()
        self.shard_map = ShardMap(n_shards)
        self._shards = [ServiceShard(i) for i in range(self.shard_map.n_shards)]
        self._app_shard: Dict[str, int] = {}
        # Insertion-ordered ticket -> shard index; doubles as the global
        # submission order (pending_tickets preserves it).
        self._ticket_shard: Dict[str, int] = {}
        # Deterministic per-instance ticket counter.  (The seed repository
        # used a module-level itertools counter, which coupled independent
        # service instances' ticket sequences and broke checkpoint/restore;
        # a plain int is per-instance, deterministic and serialisable.)
        self._next_ticket = 1

    # ------------------------------------------------------------------ #
    # Shard topology
    # ------------------------------------------------------------------ #
    @property
    def n_shards(self) -> int:
        """Number of service shards."""
        return self.shard_map.n_shards

    @property
    def shards(self) -> List[ServiceShard]:
        """The shards themselves, in shard-id order (live references)."""
        return list(self._shards)

    def shard_for(self, application: str) -> int:
        """The shard id serving one registered application."""
        return self._shard_of_application(application).shard_id

    def shard_assignments(self) -> Dict[int, List[str]]:
        """``{shard_id: [applications...]}`` over all registered applications."""
        return {shard.shard_id: shard.applications for shard in self._shards}

    def _shard_of_application(self, application: str) -> ServiceShard:
        if application not in self._app_shard:
            raise KeyError(
                f"application {application!r} has no recommender; register it first"
            )
        return self._shards[self._app_shard[application]]

    def _shard_of_ticket(self, ticket_id: str) -> ServiceShard:
        if ticket_id not in self._ticket_shard:
            raise KeyError(f"unknown ticket {ticket_id!r}")
        return self._shards[self._ticket_shard[ticket_id]]

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

        The application is consistently hashed onto one of the service's
        shards, which owns its recommender and tickets from then on.
        """
        info = self.registry.register(name, owner, feature_names, description)
        recommender = BanditWare(
            catalog=catalog if catalog is not None else self.catalog,
            feature_names=list(info.feature_names),
            tolerance=tolerance if tolerance is not None else self.tolerance,
            seed=self._seed,
            reward=reward,
        )
        shard_id = self.shard_map.shard_for(name)
        self._app_shard[name] = shard_id
        self._shards[shard_id].adopt_application(name, recommender, priority=priority)
        if warm_start_history and self.history.records_for(name):
            frame = self.history.frame_for(name)
            ingested = recommender.warm_start(frame)
            if self.log.enabled:
                self.log.record("service", "warm_start", application=name, rows=ingested)
        if self.log.enabled:
            self.log.record("service", "application_registered", application=name, owner=owner)
        return recommender

    def recommender_for(self, application: str) -> BanditWare:
        """The BanditWare instance serving one application."""
        return self._shard_of_application(application).recommender_for(application)

    def priority_for(self, application: str) -> int:
        """The priority class of one registered application."""
        return self._shard_of_application(application).priority_for(application)

    # ------------------------------------------------------------------ #
    # Read path: copy-on-write snapshots
    # ------------------------------------------------------------------ #
    def model_snapshot(self, application: str) -> ModelSnapshot:
        """The application's current published model snapshot.

        Snapshots are immutable copies republished only after a mutation, so
        readers never observe a half-applied ``observe`` batch and never
        block on one (copy-on-write).
        """
        return self._shard_of_application(application).snapshot_for(application)

    def predict_runtimes(self, application: str, features: Dict[str, float]) -> Dict[str, float]:
        """Estimated runtime of ``features`` on every arm, from the snapshot.

        This is the lock-free read path: predictions come from the
        application's published :class:`~repro.core.ModelSnapshot`, not from
        the live models.
        """
        return self.model_snapshot(application).predict_runtimes(features)

    # ------------------------------------------------------------------ #
    def submit_workflow(self, application: str, features: Dict[str, float]) -> WorkflowTicket:
        """Ask for a hardware recommendation for one incoming workflow.

        Every feature value is converted to a float before the recommender
        is asked, so a request that is rejected -- an unknown application, a
        non-numeric value, a missing or non-finite feature -- changes no
        state: no ticket is issued and the exploration schedule does not move.
        """
        shard = self._shard_of_application(application)
        features = {k: float(v) for k, v in features.items()}
        recommendation = shard.recommend(application, features)
        ticket = WorkflowTicket(
            ticket_id=self._issue_ticket_id(),
            application=application,
            features=features,
            recommendation=recommendation,
            priority=shard.priority_for(application),
        )
        shard.add_ticket(ticket)
        self._ticket_shard[ticket.ticket_id] = shard.shard_id
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
        shard = self._shard_of_application(application)
        features_batch = [
            {k: float(v) for k, v in features.items()} for features in features_batch
        ]
        recommendations = shard.recommend_batch(application, features_batch)
        priority = shard.priority_for(application)
        tickets: List[WorkflowTicket] = []
        for features, recommendation in zip(features_batch, recommendations):
            ticket = WorkflowTicket(
                ticket_id=self._issue_ticket_id(),
                application=application,
                features=features,
                recommendation=recommendation,
                priority=priority,
            )
            shard.add_ticket(ticket)
            self._ticket_shard[ticket.ticket_id] = shard.shard_id
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

        The whole batch is validated -- tickets known, uncompleted and unique,
        runtimes and queue delays finite and non-negative, slowdowns finite
        and positive -- before *any* shard mutates.  A batch may span every
        shard of the service; the pre-flight runs across all of them, so a
        rejected batch leaves every shard's recommenders and tickets
        untouched and can safely be retried after fixing the bad entry.
        """
        resolved = []
        seen = set()
        for entry in completions:
            ticket_id, runtime_seconds = entry[0], entry[1]
            queue_seconds = entry[2] if len(entry) > 2 else 0.0
            slowdown = entry[3] if len(entry) > 3 else None
            shard = self._shard_of_ticket(ticket_id)  # raises on unknown ids
            if ticket_id in seen:
                raise ValueError(f"ticket {ticket_id!r} appears twice in the batch")
            seen.add(ticket_id)
            ticket = shard.ticket(ticket_id)
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
            shard = self._shards[self._app_shard[application]]
            shard.observe_batch(
                application,
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
        shard = self._shard_of_ticket(ticket_id)
        ticket = shard.ticket(ticket_id)
        if ticket.completed:
            raise ValueError(
                f"ticket {ticket_id!r} was already completed "
                f"(observed runtime {ticket.observed_runtime}s); completions "
                "are observed exactly once and double reports are rejected"
            )
        shard.observe(
            ticket.application,
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
        out: List[WorkflowTicket] = []
        for ticket_id, shard_id in self._ticket_shard.items():
            ticket = self._shards[shard_id].ticket(ticket_id)
            if not ticket.completed:
                out.append(ticket)
        return out

    def ticket(self, ticket_id: str) -> WorkflowTicket:
        return self._shard_of_ticket(ticket_id).ticket(ticket_id)

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> "ServiceCheckpoint":
        """Snapshot the whole service into a versioned, restorable checkpoint.

        See :mod:`repro.integration.checkpoint` for the format.  The
        checkpoint captures every shard's state (recommender matrices and
        policy/exploration state, ticket table), the registry, the
        run-history ledger with its cursor, and the ticket counter;
        :func:`~repro.integration.checkpoint.restore_service` rebuilds a
        service that continues **bit-identically** to this one.
        """
        from repro.integration.checkpoint import checkpoint_service

        return checkpoint_service(self)

    def save_checkpoint(self, path) -> None:
        """Write :meth:`checkpoint` to ``path``."""
        self.checkpoint().save(path)

    @classmethod
    def restore(cls, checkpoint, log: Optional[EventLog] = None) -> "RecommendationService":
        """Rebuild a service from a :class:`ServiceCheckpoint` (or a path)."""
        from repro.integration.checkpoint import ServiceCheckpoint, restore_service

        if not hasattr(checkpoint, "shard_payloads"):
            checkpoint = ServiceCheckpoint.load(checkpoint)
        return restore_service(checkpoint, log=log)
