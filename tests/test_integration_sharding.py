"""Tests for the shard map and the service parity pin.

The headline guarantee: ``RecommendationService`` is **bit-identical** to
the pre-sharding single-process implementation for every shard count.  The
pin replays the deterministic reference stream captured before sharding
existed (``benchmarks/service_parity_reference.json``) at 1-4 shards and
requires the full observable summary -- every ticket id, hardware choice,
exploration flag, model coefficient, history row and pending set -- to
match exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.capture_service_parity import (
    REFERENCE_PATH,
    build_reference_service,
    drive_reference_stream,
    run_reference_stream,
)
from repro.hardware import ndp_catalog
from repro.integration import RecommendationService, ShardMap


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE_PATH.read_text())


class TestShardMap:
    def test_single_shard_maps_everything_to_zero(self):
        shard_map = ShardMap(1)
        assert [shard_map.shard_for(f"app-{i}") for i in range(20)] == [0] * 20

    def test_deterministic_across_instances(self):
        a, b = ShardMap(4), ShardMap(4)
        names = [f"app-{i:02d}" for i in range(50)]
        assert [a.shard_for(n) for n in names] == [b.shard_for(n) for n in names]

    def test_every_shard_owns_some_applications(self):
        shard_map = ShardMap(4)
        assignments = shard_map.assignments(f"app-{i:03d}" for i in range(200))
        assert set(assignments) == {0, 1, 2, 3}
        assert all(len(apps) > 0 for apps in assignments.values())
        assert sum(len(apps) for apps in assignments.values()) == 200

    def test_growing_the_ring_only_relocates_a_fraction(self):
        names = [f"app-{i:03d}" for i in range(200)]
        before = [ShardMap(3).shard_for(n) for n in names]
        after = [ShardMap(4).shard_for(n) for n in names]
        moved = sum(1 for b, a in zip(before, after) if b != a)
        # Consistent hashing moves ~1/n_shards of the keys, not all of them.
        assert moved < 120

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="n_shards"):
            ShardMap(0)

    def test_len_is_shard_count(self):
        assert len(ShardMap(3)) == 3


class TestFacadeParity:
    """The sharded facade is bit-identical to the pre-refactor service."""

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
    def test_reference_stream_is_bit_identical(self, n_shards, reference):
        summary = json.loads(
            json.dumps(run_reference_stream(n_shards=n_shards, n_rounds=reference["n_rounds"]))
        )
        assert summary == reference["summary"]

    def test_shard_count_does_not_change_ticket_ids(self):
        one = run_reference_stream(n_shards=1, n_rounds=20)
        four = run_reference_stream(n_shards=4, n_rounds=20)
        assert [t["ticket_id"] for t in one["tickets"]] == [
            t["ticket_id"] for t in four["tickets"]
        ]


class TestShardTopologySurface:
    def test_shard_for_matches_the_shard_map(self):
        service, _ = build_reference_service(n_shards=4)
        for app in ("alpha", "beta", "gamma"):
            assert service.shard_for(app) == service.shard_map.shard_for(app)

    def test_shard_for_unknown_application(self):
        service, _ = build_reference_service(n_shards=2)
        with pytest.raises(KeyError, match="no recommender"):
            service.shard_for("nope")

    def test_n_shards_property_and_default(self):
        service, _ = build_reference_service(n_shards=3)
        assert service.n_shards == 3
        default_service = RecommendationService(catalog=ndp_catalog())
        assert default_service.n_shards == 1


class TestTicketIdGeneration:
    """Ticket sequences are per-instance and deterministic (satellite fix)."""

    def test_independent_services_issue_independent_sequences(self):
        first, _ = build_reference_service()
        second, _ = build_reference_service()
        ticket_a = first.submit_workflow("alpha", {"x0": 1.0, "x1": 1.0})
        ticket_b = second.submit_workflow("alpha", {"x0": 1.0, "x1": 1.0})
        # The seed repo's itertools counter would have issued wf-2 here.
        assert ticket_a.ticket_id == "wf-000001"
        assert ticket_b.ticket_id == "wf-000001"

    def test_sequence_is_global_submission_order_across_shards(self):
        service, _ = build_reference_service(n_shards=4)
        ids = []
        for app in ("alpha", "beta", "gamma", "alpha", "gamma"):
            features = {f: 1.0 for f in service.recommender_for(app).feature_names}
            ids.append(service.submit_workflow(app, features).ticket_id)
        assert ids == [f"wf-{i:06d}" for i in range(1, 6)]


class TestDoubleCompletionRejected:
    def _submitted(self, n_shards=3):
        service, workloads = build_reference_service(n_shards=n_shards)
        features = {f: 1.0 for f in service.recommender_for("alpha").feature_names}
        ticket = service.submit_workflow("alpha", features)
        return service, ticket

    def test_single_completion_path(self):
        service, ticket = self._submitted()
        service.complete_workflow(ticket.ticket_id, 10.0)
        with pytest.raises(ValueError, match="already completed"):
            service.complete_workflow(ticket.ticket_id, 10.0)

    def test_error_names_the_first_observation(self):
        service, ticket = self._submitted()
        service.complete_workflow(ticket.ticket_id, 12.5)
        with pytest.raises(ValueError, match="12.5"):
            service.complete_workflow(ticket.ticket_id, 99.0)

    def test_batch_completion_path(self):
        service, ticket = self._submitted()
        service.complete_workflows([(ticket.ticket_id, 10.0)])
        with pytest.raises(ValueError, match="already completed"):
            service.complete_workflows([(ticket.ticket_id, 10.0)])


class TestCrossShardPreflight:
    """``complete_workflows`` validates across every shard before any mutates."""

    def _multi_shard_batch(self):
        service, workloads = build_reference_service(n_shards=4)
        tickets = []
        for app in ("alpha", "beta", "gamma"):
            features = {f: 1.0 for f in service.recommender_for(app).feature_names}
            tickets.append(service.submit_workflow(app, features))
        shards = {service.shard_for(t.application) for t in tickets}
        assert len(shards) > 1, "batch must span shards for this test to bite"
        return service, tickets

    def _state_fingerprint(self, service):
        return json.loads(
            json.dumps(
                {
                    app: {
                        "coefficients": service.recommender_for(app).coefficients(),
                        "counts": service.recommender_for(app).observation_counts(),
                    }
                    for app in ("alpha", "beta", "gamma")
                }
            )
        )

    @pytest.mark.parametrize(
        "bad_entry_for_last, match",
        [
            (lambda t: (t.ticket_id, float("nan")), "finite and non-negative"),
            (lambda t: (t.ticket_id, -1.0), "finite and non-negative"),
            (lambda t: (t.ticket_id, 10.0, float("inf")), "queue delay"),
            (lambda t: (t.ticket_id, 10.0, 0.0, 0.0), "slowdown"),
            (lambda t: ("wf-999999", 10.0), "unknown ticket"),
        ],
    )
    def test_bad_entry_on_one_shard_leaves_all_shards_untouched(
        self, bad_entry_for_last, match
    ):
        service, tickets = self._multi_shard_batch()
        before = self._state_fingerprint(service)
        batch = [(t.ticket_id, 10.0) for t in tickets[:-1]]
        batch.append(bad_entry_for_last(tickets[-1]))
        with pytest.raises((ValueError, KeyError), match=match):
            service.complete_workflows(batch)
        assert self._state_fingerprint(service) == before
        assert all(not t.completed for t in tickets)
        assert len(service.history) == len(
            service.history.records_for("beta")
        )  # only the warm-start rows
        # The batch is retryable after repairing the bad entry.
        service.complete_workflows([(t.ticket_id, 10.0) for t in tickets])
        assert all(t.completed for t in tickets)

    def test_duplicate_ticket_across_shards_rejected(self):
        service, tickets = self._multi_shard_batch()
        batch = [(t.ticket_id, 10.0) for t in tickets] + [(tickets[0].ticket_id, 10.0)]
        with pytest.raises(ValueError, match="appears twice"):
            service.complete_workflows(batch)
        assert all(not t.completed for t in tickets)


class TestCheckpointResumeAgainstReference:
    """Checkpoint -> restore mid-stream continues bit-identically (satellite c)."""

    def test_restored_service_finishes_the_reference_stream_identically(self, reference):
        # Drive the full stream on one service, and the same stream on a
        # service that is checkpoint/restored at every 20-round boundary;
        # the final summaries must match the pre-refactor reference exactly.
        from repro.integration import RecommendationService

        n_rounds = reference["n_rounds"]
        expected = reference["summary"]

        service, workloads = build_reference_service(n_shards=2)
        # drive_reference_stream derives all randomness from per-app RNGs it
        # creates itself, so split the stream by replaying with a fresh
        # service that round-trips through a checkpoint mid-way: rebuild the
        # stream driver inline with the same constants.
        summary = _drive_with_checkpoint_roundtrips(service, workloads, n_rounds, every=20)
        assert json.loads(json.dumps(summary)) == expected


def _drive_with_checkpoint_roundtrips(service, workloads, n_rounds, every):
    """Replay ``drive_reference_stream`` but swap in a restored copy every N rounds."""
    from benchmarks.capture_service_parity import _APPS, summarise_service
    from repro.integration import RecommendationService

    apps = [name for name, *_ in _APPS]
    feature_rng = {name: np.random.default_rng(100 + i) for i, name in enumerate(apps)}
    runtime_rng = {name: np.random.default_rng(200 + i) for i, name in enumerate(apps)}
    tickets_log = []
    for round_index in range(n_rounds):
        if round_index and round_index % every == 0:
            service = RecommendationService.restore(service.checkpoint())
        app = apps[round_index % len(apps)]
        workload = workloads[app]
        if round_index % 10 == 9:
            features = [workload.sample_features(feature_rng[app]) for _ in range(3)]
            tickets = service.submit_workflows(app, features)
        else:
            tickets = [service.submit_workflow(app, workload.sample_features(feature_rng[app]))]
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
                (ticket.ticket_id, runtime, 0.1 * (round_index % 4), 1.0 + 0.05 * (round_index % 5))
            )
        if round_index % 13 == 7:
            continue
        if round_index % 2:
            service.complete_workflows(completions)
        else:
            for ticket_id, runtime, queue, slowdown in completions:
                service.complete_workflow(ticket_id, runtime, queue_seconds=queue, slowdown=slowdown)
    return summarise_service(service, tickets_log)
