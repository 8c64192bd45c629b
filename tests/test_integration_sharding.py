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

    @pytest.mark.parametrize("n_shards", [2.5, True, 3.0])
    def test_rejects_a_shard_count_that_is_not_an_integer(self, n_shards):
        with pytest.raises(ValueError, match="n_shards must be an integer >= 1"):
            ShardMap(n_shards)

    @pytest.mark.parametrize("n_shards", [2.5, True])
    def test_service_rejects_a_shard_count_that_is_not_an_integer(self, n_shards):
        with pytest.raises(ValueError, match="n_shards"):
            RecommendationService(ndp_catalog(), n_shards=n_shards)

    def test_accepts_a_numpy_integer_shard_count(self):
        shard_map = ShardMap(np.int64(3))
        assert type(shard_map.n_shards) is int and shard_map.n_shards == 3

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


class TestCheckpointResumeAgainstReference:
    """Checkpoint -> restore mid-stream continues bit-identically."""

    def test_restored_service_finishes_the_reference_stream_identically(self, reference):
        # Drive the stream on a service that is checkpoint/restored at every
        # 20-round boundary; the final summary must match the pre-refactor
        # reference exactly.
        def roundtrip(round_index, service):
            if round_index and round_index % 20 == 0:
                return RecommendationService.restore(service.checkpoint())
            return service

        service, workloads = build_reference_service(n_shards=2)
        summary = drive_reference_stream(
            service, workloads, reference["n_rounds"], swap=roundtrip
        )
        assert json.loads(json.dumps(summary)) == reference["summary"]
