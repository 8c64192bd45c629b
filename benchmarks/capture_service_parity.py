"""Capture the serving golden file, ``service_parity_reference.json``.

This file is one of the repo's two golden fingerprint files (the other is
``frontier_parity_reference.json``, written by
``capture_frontier_parity.py``).  This script drives a deterministic
multi-application request stream through the *public*
``RecommendationService`` API only -- registrations with every
reward mode, warm starting, single and batched submissions, single and
batched completions with queue delays and slowdowns, and tickets
intentionally left pending -- and records everything observable: every
ticket's id / hardware / explored flag, each recommender's final
coefficients, observation counts and ε, the run-history ledger, and the
pending set.  ``tests/test_integration_sharding.py`` replays the same
stream through the service at 1..4 shards and requires the summary to
match the file **exactly**; the checkpoint tests reuse
``build_reference_service``.

The rule for regenerating it: run this script only with the parent
commit's engine, only to add a surface, never to absorb drift.  A change
that moves the summary is a behaviour change, not a reason to re-capture.

Run from the repository root::

    PYTHONPATH=src python benchmarks/capture_service_parity.py
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.core.rewards import RewardConfig
from repro.hardware import ndp_catalog
from repro.integration import RecommendationService, RunHistoryStore
from repro.workloads import LinearRuntimeWorkload, TraceGenerator

REFERENCE_PATH = Path(__file__).resolve().parent / "service_parity_reference.json"

#: Applications in the reference stream: (name, owner, n_features, seed).
_APPS = (
    ("alpha", "ada", 2, 11),
    ("beta", "bob", 1, 12),
    ("gamma", "grace", 3, 13),
)


def build_reference_service(
    seed: int = 0, n_shards: int = 1
) -> Tuple[RecommendationService, Dict[str, LinearRuntimeWorkload]]:
    """The reference service: three applications, one warm-started."""
    catalog = ndp_catalog()
    workloads = {
        name: LinearRuntimeWorkload.random(
            catalog, n_features=n_features, seed=wl_seed, name=name
        )
        for name, _, n_features, wl_seed in _APPS
    }
    history = RunHistoryStore()
    history.extend(TraceGenerator(workloads["beta"], catalog, seed=1).generate_runs(15))
    service = RecommendationService(
        catalog=catalog, history=history, seed=seed, n_shards=n_shards
    )
    service.register_application(
        "alpha", "ada", workloads["alpha"].feature_names, priority=1
    )
    service.register_application(
        "beta",
        "bob",
        workloads["beta"].feature_names,
        reward=RewardConfig(mode="queue_inclusive", queue_weight=0.5),
    )
    service.register_application(
        "gamma",
        "grace",
        workloads["gamma"].feature_names,
        reward=RewardConfig(mode="slowdown_inclusive", slowdown_weight=1.0),
        priority=2,
    )
    return service, workloads


def drive_reference_stream(
    service: RecommendationService,
    workloads: Dict[str, LinearRuntimeWorkload],
    n_rounds: int = 60,
) -> Dict:
    """Drive the deterministic reference stream; return the observable summary.

    Per-application RNG streams make the stream independent of how requests
    interleave internally: feature draws and runtime noise depend only on the
    per-application call order, which the service contract preserves.
    """
    apps = [name for name, *_ in _APPS]
    feature_rng = {name: np.random.default_rng(100 + i) for i, name in enumerate(apps)}
    runtime_rng = {name: np.random.default_rng(200 + i) for i, name in enumerate(apps)}
    tickets_log = []
    for round_index in range(n_rounds):
        app = apps[round_index % len(apps)]
        workload = workloads[app]
        if round_index % 10 == 9:
            features = [workload.sample_features(feature_rng[app]) for _ in range(3)]
            tickets = service.submit_workflows(app, features)
        else:
            tickets = [
                service.submit_workflow(app, workload.sample_features(feature_rng[app]))
            ]
        completions = []
        for ticket in tickets:
            runtime = workload.observed_runtime(
                ticket.features, ticket.recommendation.hardware, runtime_rng[app]
            )
            tickets_log.append(
                {
                    "ticket_id": ticket.ticket_id,
                    "application": app,
                    "hardware": ticket.recommendation.hardware.name,
                    "explored": bool(ticket.recommendation.explored),
                }
            )
            completions.append(
                (
                    ticket.ticket_id,
                    runtime,
                    0.1 * (round_index % 4),
                    1.0 + 0.05 * (round_index % 5),
                )
            )
        if round_index % 13 == 7:
            continue  # leave these tickets pending
        if round_index % 2:
            service.complete_workflows(completions)
        else:
            for ticket_id, runtime, queue, slowdown in completions:
                service.complete_workflow(
                    ticket_id, runtime, queue_seconds=queue, slowdown=slowdown
                )
    return summarise_service(service, tickets_log)


def summarise_service(service: RecommendationService, tickets_log) -> Dict:
    """Everything observable through the service API, JSON-ready."""
    apps = [name for name, *_ in _APPS]
    per_app = {}
    for app in apps:
        recommender = service.recommender_for(app)
        per_app[app] = {
            "coefficients": recommender.coefficients(),
            "observation_counts": recommender.observation_counts(),
            "epsilon": float(recommender.policy.epsilon),
            "history_rows": len(recommender.history),
            "priority": service.priority_for(app),
            "hardware_usage": service.history.hardware_usage(app),
        }
    return {
        "tickets": tickets_log,
        "applications": per_app,
        "history_len": len(service.history),
        "total_runtime": service.history.total_runtime(),
        "pending_tickets": [t.ticket_id for t in service.pending_tickets()],
    }


def run_reference_stream(n_shards: int = 1, n_rounds: int = 60) -> Dict:
    """Build the reference service and drive the stream in one call."""
    service, workloads = build_reference_service(n_shards=n_shards)
    return drive_reference_stream(service, workloads, n_rounds=n_rounds)


def _current_commit() -> str:
    try:
        return (
            subprocess.check_output(
                ["git", "rev-parse", "HEAD"], cwd=Path(__file__).resolve().parent.parent
            )
            .decode()
            .strip()
        )
    except Exception:  # pragma: no cover - git may be unavailable
        return "unknown"


def main() -> int:
    reference = {
        "_comment": (
            "Facade parity reference for the sharded serving refactor: the "
            "observable summary of benchmarks/capture_service_parity.py's "
            "deterministic stream at the pre-refactor commit.  The sharded "
            "RecommendationService must reproduce it bit for bit for every "
            "shard count."
        ),
        "captured_at_commit": _current_commit(),
        "n_rounds": 60,
        "summary": run_reference_stream(),
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
