"""A simulated National Data Platform (NDP) integration layer.

The paper positions BanditWare as a service for the National Data Platform:
domain scientists register applications, past runs accumulate in a run-history
store, and the platform recommends the Kubernetes resource configuration for
the next run.  This package provides that service layer on top of the cluster
simulator so the end-to-end deployment story is executable:

* :class:`~repro.integration.ndp.ApplicationRegistry` and
  :class:`~repro.integration.ndp.RunHistoryStore` -- the platform-side
  bookkeeping (who owns which application, what has run where).
* :class:`~repro.integration.recommender_service.RecommendationService` --
  wires a :class:`~repro.core.BanditWare` instance per application to the
  registry, the history store and a cluster backend, exposing
  ``submit_workflow`` / ``complete_workflow`` calls shaped like the platform's
  API.
* :class:`~repro.integration.sharding.ShardMap` -- consistent-hash
  assignment of applications to shards, which the service records at
  registration; no decision reads it.
* :class:`~repro.integration.checkpoint.ServiceCheckpoint` -- versioned
  whole-service durability with bit-identical restore.
"""

from repro.integration.checkpoint import (
    CHECKPOINT_VERSION,
    ServiceCheckpoint,
    checkpoint_service,
    restore_service,
)
from repro.integration.ndp import ApplicationInfo, ApplicationRegistry, RunHistoryStore
from repro.integration.recommender_service import RecommendationService, WorkflowTicket
from repro.integration.sharding import ShardMap

__all__ = [
    "ApplicationInfo",
    "ApplicationRegistry",
    "RunHistoryStore",
    "RecommendationService",
    "WorkflowTicket",
    "ShardMap",
    "CHECKPOINT_VERSION",
    "ServiceCheckpoint",
    "checkpoint_service",
    "restore_service",
]
