"""Tests for the versioned service checkpoint format (durability layer).

The contract: ``checkpoint()`` captures the full serving state (bandit
models, the ticket table, history, shard ids), ``restore()`` rebuilds a
bit-identical service, and corrupted or incompatible checkpoints are
rejected loudly instead of restoring garbage.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from benchmarks.capture_service_parity import (
    CHECKPOINT_PATH,
    CHECKPOINT_ROUNDS,
    REFERENCE_PATH,
    build_reference_service,
    drive_reference_stream,
)
from repro.hardware import ndp_catalog
from repro.integration import (
    CHECKPOINT_VERSION,
    RecommendationService,
    ServiceCheckpoint,
    checkpoint_service,
    restore_service,
)
from repro.utils.logging import EventLog
from repro.workloads import LinearRuntimeWorkload


def _drive(service, workloads, n_rounds, seed=5, complete=True):
    rng = np.random.default_rng(seed)
    apps = list(workloads)
    tickets = []
    for i in range(n_rounds):
        app = apps[i % len(apps)]
        ticket = service.submit_workflow(app, workloads[app].sample_features(rng))
        if complete:
            runtime = workloads[app].observed_runtime(
                ticket.features, ticket.recommendation.hardware, rng
            )
            service.complete_workflow(ticket.ticket_id, runtime)
        tickets.append(ticket)
    return tickets


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_restore_matches_original_state(self, n_shards):
        service, workloads = build_reference_service(n_shards=n_shards)
        _drive(service, workloads, 24)
        restored = RecommendationService.restore(service.checkpoint())

        assert restored.n_shards == service.n_shards
        assert len(restored.history) == len(service.history)
        assert restored.history.hardware_usage() == service.history.hardware_usage()
        assert restored.history.total_runtime() == service.history.total_runtime()
        probe_rng = np.random.default_rng(123)
        for app in workloads:
            assert restored.shard_for(app) == service.shard_for(app)
            features = workloads[app].sample_features(probe_rng)
            assert restored.recommender_for(app).predict_runtimes(
                features
            ) == service.recommender_for(app).predict_runtimes(features)

    def test_resumed_decisions_are_identical(self):
        service, workloads = build_reference_service(n_shards=2)
        _drive(service, workloads, 24)
        restored = RecommendationService.restore(service.checkpoint())
        original_tickets = _drive(service, workloads, 12, seed=77)
        restored_tickets = _drive(restored, workloads, 12, seed=77)
        for a, b in zip(original_tickets, restored_tickets):
            assert a.ticket_id == b.ticket_id
            assert a.recommendation.hardware.name == b.recommendation.hardware.name
            assert a.recommendation.explored == b.recommendation.explored

    def test_pending_tickets_survive_and_can_complete(self):
        service, workloads = build_reference_service(n_shards=2)
        pending = _drive(service, workloads, 6, complete=False)
        restored = RecommendationService.restore(service.checkpoint())
        for ticket in pending:
            copy = restored.ticket(ticket.ticket_id)
            assert not copy.completed
            assert copy.recommendation.hardware.name == ticket.recommendation.hardware.name
        restored.complete_workflow(pending[0].ticket_id, 11.0)
        assert restored.ticket(pending[0].ticket_id).completed
        # The original service is untouched -- restore is a copy, not a view.
        assert not service.ticket(pending[0].ticket_id).completed

    def test_save_and_load_from_disk(self, tmp_path):
        service, workloads = build_reference_service(n_shards=2)
        _drive(service, workloads, 18)
        path = tmp_path / "service.ckpt"
        service.checkpoint().save(path)
        loaded = ServiceCheckpoint.load(path)
        assert loaded.version == CHECKPOINT_VERSION
        restored = restore_service(loaded)
        assert restored.history.hardware_usage() == service.history.hardware_usage()
        assert restored.history.total_runtime() == service.history.total_runtime()

    def test_restore_accepts_a_path_directly(self, tmp_path):
        service, workloads = build_reference_service(n_shards=2)
        _drive(service, workloads, 10)
        path = tmp_path / "service.ckpt"
        service.checkpoint().save(path)
        restored = RecommendationService.restore(path)
        assert restored.n_shards == 2
        assert len(restored.history) == len(service.history)


class TestCheckpointBytes:
    # After 20 rounds every decision so far explored; after 60 the
    # selectors have cached their catalogs' efficiency order.
    @pytest.mark.parametrize("n_rounds", [CHECKPOINT_ROUNDS, 60])
    def test_same_state_checkpoints_to_the_same_bytes(self, n_rounds):
        """Neither stale memory nor a memory address reaches the file.

        Before each capture the test frees float arrays of every size the
        least-squares buffers take, filled with a junk value of its own, so
        a buffer allocated uninitialised would pick up different bytes each
        time.  Every service stays alive, so no two of them share object
        addresses.
        """
        services = []

        def capture(junk):
            stale = [np.full(n, junk) for n in range(1, 257) for _ in range(8)]
            del stale
            service, workloads = build_reference_service(n_shards=2)
            drive_reference_stream(service, workloads, n_rounds)
            services.append(service)
            return service.checkpoint()

        first, *others = [capture(junk) for junk in (1.5, -2.25, 7e300)]
        for other in others:
            assert other.payload == first.payload
            assert other.digest == first.digest


def _generator_seeded_service(n_shards):
    """Three applications sharing one ``numpy.random.Generator`` seed."""
    catalog = ndp_catalog()
    service = RecommendationService(
        catalog=catalog, seed=np.random.default_rng(3), n_shards=n_shards
    )
    workloads = {}
    for index, name in enumerate(("alpha", "beta", "gamma")):
        workloads[name] = LinearRuntimeWorkload.random(
            catalog, n_features=2, seed=40 + index, name=name
        )
        service.register_application(name, "owner", workloads[name].feature_names)
    return service, workloads


def _decisions(tickets):
    return [
        (t.ticket_id, t.recommendation.hardware.name, t.recommendation.explored)
        for t in tickets
    ]


class TestCheckpointWrittenByAnEarlierBuild:
    """``tests/data/reference_service_v2.ckpt`` was written by an earlier build.

    Every other restore test writes and reads with the same code, so a layout
    change that breaks files already on disk passes them.  This one restores
    a v2 file captured after rounds 0-19 of the reference stream (see
    ``benchmarks/capture_service_parity.py --checkpoint``) and must finish
    the stream exactly as ``service_parity_reference.json`` records.
    """

    def test_restored_file_finishes_the_reference_stream(self):
        reference = json.loads(REFERENCE_PATH.read_text())

        def restore_checked_in_file(round_index, service):
            # Rounds 0-19 replay on a fresh service only to advance the
            # driver's feature and runtime streams past the checkpoint.
            if round_index == CHECKPOINT_ROUNDS:
                return RecommendationService.restore(CHECKPOINT_PATH)
            return service

        service, workloads = build_reference_service(n_shards=2)
        summary = drive_reference_stream(
            service, workloads, reference["n_rounds"], swap=restore_checked_in_file
        )
        assert json.loads(json.dumps(summary)) == reference["summary"]

    def test_file_holds_the_service_after_round_19(self):
        restored = RecommendationService.restore(CHECKPOINT_PATH)
        service, workloads = build_reference_service(n_shards=2)
        drive_reference_stream(service, workloads, CHECKPOINT_ROUNDS)
        assert restored.n_shards == 2
        assert restored._next_ticket == service._next_ticket
        assert [t.ticket_id for t in restored.pending_tickets()] == [
            t.ticket_id for t in service.pending_tickets()
        ]
        for app in workloads:
            assert restored.recommender_for(app).coefficients() == (
                service.recommender_for(app).coefficients()
            )


class TestSharedGeneratorSeed:
    """Recommenders seeded with one Generator still share it after a restore."""

    def test_three_shards_continue_identically(self):
        service, workloads = _generator_seeded_service(n_shards=3)
        assert len({service.shard_for(app) for app in workloads}) > 1
        _drive(service, workloads, 24)
        restored = RecommendationService.restore(service.checkpoint())
        original = _drive(service, workloads, 60, seed=77)
        resumed = _drive(restored, workloads, 60, seed=77)
        assert _decisions(resumed) == _decisions(original)

    def test_restored_recommenders_share_one_generator(self):
        service, workloads = _generator_seeded_service(n_shards=3)
        restored = RecommendationService.restore(service.checkpoint())
        restored.register_application("delta", "owner", ["x0"])
        generators = {id(restored.recommender_for(app)._rng) for app in (*workloads, "delta")}
        assert len(generators) == 1

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_application_registered_after_restore_continues_identically(self, n_shards):
        service, workloads = _generator_seeded_service(n_shards=n_shards)
        _drive(service, workloads, 24)
        restored = RecommendationService.restore(service.checkpoint())
        delta = LinearRuntimeWorkload.random(ndp_catalog(), n_features=2, seed=50, name="delta")
        for copy in (service, restored):
            copy.register_application("delta", "owner", delta.feature_names)
        assert restored.shard_for("delta") == service.shard_for("delta")
        workloads = dict(workloads, delta=delta)
        original = _drive(service, workloads, 60, seed=78)
        resumed = _drive(restored, workloads, 60, seed=78)
        assert _decisions(resumed) == _decisions(original)


class TestCheckpointRejection:
    def test_version_mismatch_is_rejected(self):
        service, workloads = build_reference_service()
        _drive(service, workloads, 6)
        checkpoint = checkpoint_service(service)
        stale = ServiceCheckpoint(
            version=CHECKPOINT_VERSION + 1,
            n_shards=checkpoint.n_shards,
            next_ticket=checkpoint.next_ticket,
            payload=checkpoint.payload,
            digest=checkpoint.digest,
        )
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            restore_service(stale)

    @pytest.mark.parametrize("field", ["n_shards", "next_ticket"])
    def test_tampered_header_fails_integrity_check(self, field):
        service, workloads = build_reference_service(n_shards=2)
        _drive(service, workloads, 6)
        checkpoint = service.checkpoint()
        setattr(checkpoint, field, getattr(checkpoint, field) + 1)
        with pytest.raises(ValueError, match="integrity check failed"):
            restore_service(checkpoint)

    @pytest.fixture
    def version_1_file(self, tmp_path):
        """A file laid out as format version 1 wrote it.

        Its payloads are not pickles, so the version check must refuse the
        file before anything tries to unpickle them.
        """
        stale = ServiceCheckpoint.__new__(ServiceCheckpoint)
        stale.__dict__.update(
            version=1,
            n_shards=1,
            n_replicas=64,
            shard_payloads=[b"not a pickle"],
            facade_payload=b"not a pickle",
            history_cursor=0,
            next_ticket=1,
            digest="0" * 64,
        )
        path = tmp_path / "v1.ckpt"
        path.write_bytes(pickle.dumps(stale, protocol=4))
        return path

    def test_version_1_file_is_refused_by_load(self, version_1_file):
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            ServiceCheckpoint.load(version_1_file)

    def test_version_1_file_is_refused_by_restore(self, version_1_file):
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            RecommendationService.restore(version_1_file)

    def test_corrupted_payload_fails_integrity_check(self, tmp_path):
        service, workloads = build_reference_service()
        _drive(service, workloads, 6)
        path = tmp_path / "service.ckpt"
        service.checkpoint().save(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            RecommendationService.restore(path)

    def test_non_checkpoint_file_is_rejected(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            ServiceCheckpoint.load(path)


class TestRestoredLogging:
    def test_restored_service_defaults_to_null_log(self):
        service, workloads = build_reference_service()
        _drive(service, workloads, 4)
        restored = RecommendationService.restore(service.checkpoint())
        # Serving through the restored service must not raise even though no
        # log was supplied -- the EventLog is runtime-only state.
        _drive(restored, workloads, 4, seed=8)

    def test_restored_service_accepts_a_fresh_log(self):
        service, workloads = build_reference_service()
        _drive(service, workloads, 4)
        log = EventLog()
        restored = RecommendationService.restore(service.checkpoint(), log=log)
        _drive(restored, workloads, 2, seed=8)
        assert log.filter(event="recommendation")
