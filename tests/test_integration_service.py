"""Integration tests: the NDP-style recommendation service end to end."""

import inspect

import numpy as np
import pytest

from repro.cluster import ClusterSimulator
from repro.core import ToleranceConfig
from repro.hardware import ndp_catalog
from repro.integration import (
    ApplicationRegistry,
    RecommendationService,
    RunHistoryStore,
)
from repro.utils.logging import EventLog
from repro.workloads import CyclesWorkload, LinearRuntimeWorkload, RunRecord, TraceGenerator

from conftest import model_of


class TestApplicationRegistry:
    def test_register_and_get(self):
        registry = ApplicationRegistry()
        registry.register("cycles", "alice", ["num_tasks"])
        assert registry.get("cycles").owner == "alice"
        assert "cycles" in registry
        assert len(registry) == 1

    def test_duplicate_registration_rejected(self):
        registry = ApplicationRegistry()
        registry.register("cycles", "alice", ["num_tasks"])
        with pytest.raises(ValueError):
            registry.register("cycles", "bob", ["num_tasks"])

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            ApplicationRegistry().get("ghost")

    def test_requires_features(self):
        with pytest.raises(ValueError):
            ApplicationRegistry().register("app", "alice", [])


class TestRunHistoryStore:
    def _record(self, app="cycles", hw="H0", runtime=10.0):
        return RunRecord("r", app, hw, runtime, features={"num_tasks": 100.0})

    def test_add_and_query(self):
        store = RunHistoryStore()
        store.add(self._record())
        store.add(self._record(app="other"))
        assert len(store) == 2
        assert len(store.records_for("cycles")) == 1

    def test_frame_for_application(self):
        store = RunHistoryStore()
        store.extend([self._record(), self._record(hw="H1")])
        frame = store.frame_for("cycles")
        assert frame.shape[0] == 2
        assert "num_tasks" in frame

    def test_total_runtime_and_usage(self):
        store = RunHistoryStore()
        store.extend([self._record(runtime=10.0), self._record(hw="H1", runtime=5.0)])
        assert store.total_runtime() == 15.0
        assert store.total_runtime("cycles") == 15.0
        assert store.hardware_usage() == {"H0": 1, "H1": 1}


class TestRecommendationService:
    def _service(self, seed=0, log=None):
        return RecommendationService(catalog=ndp_catalog(), seed=seed, log=log)

    def test_register_creates_recommender(self):
        service = self._service()
        recommender = service.register_application("cycles", "alice", ["num_tasks"])
        assert service.recommender_for("cycles") is recommender

    def test_submit_requires_registration(self):
        with pytest.raises(KeyError):
            self._service().submit_workflow("ghost", {"x": 1.0})

    def test_submit_and_complete_updates_models_and_history(self):
        service = self._service()
        service.register_application("cycles", "alice", ["num_tasks"])
        ticket = service.submit_workflow("cycles", {"num_tasks": 100.0})
        assert ticket.recommendation.hardware.name in ndp_catalog().names
        service.complete_workflow(ticket.ticket_id, 123.0)
        assert service.ticket(ticket.ticket_id).completed
        assert len(service.history) == 1
        counts = service.recommender_for("cycles").observation_counts()
        assert sum(counts.values()) == 1

    def test_double_completion_rejected(self):
        service = self._service()
        service.register_application("cycles", "alice", ["num_tasks"])
        ticket = service.submit_workflow("cycles", {"num_tasks": 100.0})
        service.complete_workflow(ticket.ticket_id, 10.0)
        with pytest.raises(ValueError):
            service.complete_workflow(ticket.ticket_id, 10.0)

    def test_unknown_ticket(self):
        service = self._service()
        with pytest.raises(KeyError):
            service.complete_workflow("wf-999999", 1.0)

    def test_pending_tickets(self):
        service = self._service()
        service.register_application("cycles", "alice", ["num_tasks"])
        ticket = service.submit_workflow("cycles", {"num_tasks": 100.0})
        assert [t.ticket_id for t in service.pending_tickets()] == [ticket.ticket_id]
        service.complete_workflow(ticket.ticket_id, 10.0)
        assert service.pending_tickets() == []

    def test_uses_the_history_store_it_is_given_even_when_empty(self):
        history = RunHistoryStore()
        service = RecommendationService(catalog=ndp_catalog(), history=history)
        assert service.history is history

    def test_application_uses_the_service_catalog_and_tolerance(self, ndp):
        tolerance = ToleranceConfig(ratio=0.05, seconds=2.0)
        service = RecommendationService(catalog=ndp, tolerance=tolerance, seed=0)
        recommender = service.register_application("cycles", "alice", ["num_tasks"])
        assert recommender.catalog is ndp
        assert recommender.policy.selector.tolerance is tolerance

    def test_register_application_takes_no_per_application_overrides(self):
        parameters = inspect.signature(RecommendationService.register_application).parameters
        assert list(parameters) == [
            "self", "name", "owner", "feature_names", "description", "reward", "priority"
        ]

    def test_warm_start_from_existing_history(self, ndp):
        workload = LinearRuntimeWorkload.random(ndp, n_features=1, seed=3)
        history = RunHistoryStore()
        generator = TraceGenerator(workload, ndp, seed=1)
        history.extend(generator.generate_runs(20))
        service = RecommendationService(catalog=ndp, history=history, seed=0)
        recommender = service.register_application(
            workload.name, "alice", workload.feature_names
        )
        assert sum(recommender.observation_counts().values()) == 20

    def test_invalid_runtime_mutates_nothing(self):
        """A rejected completion leaves no partial state, and its retry learns once."""
        service = self._service()
        service.register_application("cycles", "alice", ["num_tasks"])
        ticket = service.submit_workflow("cycles", {"num_tasks": 100.0})
        with pytest.raises(ValueError, match="finite and non-negative"):
            service.complete_workflow(ticket.ticket_id, float("nan"))
        assert sum(service.recommender_for("cycles").observation_counts().values()) == 0
        assert not service.ticket(ticket.ticket_id).completed
        assert len(service.history) == 0
        service.complete_workflow(ticket.ticket_id, 50.0)
        assert sum(service.recommender_for("cycles").observation_counts().values()) == 1
        assert len(service.history) == 1

    def test_completion_rejects_negative_and_infinite_runtimes(self):
        service = self._service()
        service.register_application("cycles", "alice", ["num_tasks"])
        for bad in (-1.0, float("inf"), float("-inf")):
            ticket = service.submit_workflow("cycles", {"num_tasks": 100.0})
            with pytest.raises(ValueError, match="finite and non-negative"):
                service.complete_workflow(ticket.ticket_id, bad)
            assert not service.ticket(ticket.ticket_id).completed

    def test_run_workflow_end_to_end_with_cluster(self):
        log = EventLog()
        service = self._service(log=log)
        service.register_application("cycles", "alice", ["num_tasks"])
        cluster = ClusterSimulator(workload=CyclesWorkload(), catalog=ndp_catalog(), seed=0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            features = {"num_tasks": float(rng.choice([100, 500]))}
            ticket = service.run_workflow("cycles", features, cluster)
            assert ticket.completed
            assert ticket.observed_runtime > 0
        assert len(service.history) == 10
        assert len(log.filter(event="recommendation")) == 10

    def test_online_service_learns_the_fast_hardware(self, ndp):
        """Over a stream of workflows the service's recommendations converge."""
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (1.0, 10.0)},
            coefficients={
                "H0": ({"x": 30.0}, 5.0),
                "H1": ({"x": 3.0}, 5.0),
                "H2": ({"x": 15.0}, 5.0),
            },
            noise_sigma=0.5,
        )
        service = RecommendationService(catalog=ndp, seed=2)
        service.register_application(workload.name, "alice", workload.feature_names)
        rng = np.random.default_rng(11)
        picks = []
        for _ in range(120):
            features = workload.sample_features(rng)
            ticket = service.submit_workflow(workload.name, features)
            runtime = workload.observed_runtime(features, ticket.recommendation.hardware, rng)
            service.complete_workflow(ticket.ticket_id, runtime)
            picks.append(ticket.recommendation.hardware.name)
        late_picks = picks[-30:]
        assert late_picks.count("H1") / len(late_picks) > 0.7


class TestAtomicRegistration:
    """A registration that raises leaves no trace; a corrected retry succeeds."""

    def _assert_unregistered(self, service, log, name, features):
        assert name not in service.registry
        assert len(service.registry) == 0
        with pytest.raises(KeyError, match="no recommender"):
            service.recommender_for(name)
        with pytest.raises(KeyError, match="no recommender"):
            service.submit_workflow(name, features)
        assert service.pending_tickets() == []
        assert len(log) == 0

    @pytest.mark.parametrize(
        "name, feature_names, match",
        [
            ("cycles", ["num_tasks", "num_tasks"], "duplicates"),
            ("cycles", [], "at least one feature"),
            ("", ["num_tasks"], "non-empty"),
        ],
        ids=["duplicate-features", "no-features", "empty-name"],
    )
    def test_rejected_registration(self, name, feature_names, match):
        log = EventLog()
        service = RecommendationService(catalog=ndp_catalog(), seed=0, log=log)
        with pytest.raises(ValueError, match=match):
            service.register_application(name, "alice", feature_names)
        self._assert_unregistered(service, log, name, {"num_tasks": 1.0})
        recommender = service.register_application("cycles", "alice", ["num_tasks"])
        assert service.recommender_for("cycles") is recommender
        assert service.submit_workflow("cycles", {"num_tasks": 1.0}).ticket_id == "wf-000001"

    @pytest.mark.parametrize("priority", ["abc", 1.5, 2.0, True, "3"])
    def test_priority_that_is_not_an_integer(self, priority):
        log = EventLog()
        service = RecommendationService(catalog=ndp_catalog(), seed=0, log=log)
        with pytest.raises(TypeError, match="integer"):
            service.register_application("cycles", "alice", ["num_tasks"], priority=priority)
        self._assert_unregistered(service, log, "cycles", {"num_tasks": 1.0})
        service.register_application("cycles", "alice", ["num_tasks"], priority=2)
        assert service.priority_for("cycles") == 2

    def test_numpy_integer_priority_is_accepted(self):
        service = RecommendationService(catalog=ndp_catalog(), seed=0)
        service.register_application("cycles", "alice", ["num_tasks"], priority=np.int64(3))
        assert type(service.priority_for("cycles")) is int
        assert service.submit_workflow("cycles", {"num_tasks": 1.0}).priority == 3

    def test_taken_name_keeps_the_registered_application(self):
        log = EventLog()
        service = RecommendationService(catalog=ndp_catalog(), seed=0, log=log)
        recommender = service.register_application("cycles", "alice", ["num_tasks"])
        with pytest.raises(ValueError, match="already registered"):
            service.register_application("cycles", "bob", ["size"], priority=3)
        assert service.recommender_for("cycles") is recommender
        assert service.priority_for("cycles") == 0
        assert service.registry.get("cycles").owner == "alice"
        assert len(log) == 1

    def test_failed_warm_start(self, ndp):
        workload = LinearRuntimeWorkload.random(ndp, n_features=1, seed=3)
        history = RunHistoryStore()
        history.extend(TraceGenerator(workload, ndp, seed=1).generate_runs(20))
        log = EventLog()
        service = RecommendationService(catalog=ndp, history=history, seed=0, log=log)
        with pytest.raises(KeyError, match="missing column 'size'"):
            service.register_application(workload.name, "alice", ["x0", "size"])
        self._assert_unregistered(service, log, workload.name, {"x0": 1.0, "size": 1.0})
        assert len(service.history) == 20
        recommender = service.register_application(
            workload.name, "alice", workload.feature_names
        )
        assert sum(recommender.observation_counts().values()) == 20
        assert [r.event for r in log] == ["warm_start", "application_registered"]


class TestQueueAwareServiceCompletions:
    """Queue delays and priority classes flow through the service layer."""

    def _service(self, **register_kwargs):
        from repro.hardware import ndp_catalog

        service = RecommendationService(catalog=ndp_catalog(), seed=0)
        service.register_application("app", "alice", ["x"], **register_kwargs)
        return service

    def test_priority_stamped_on_tickets(self):
        service = self._service(priority=7)
        ticket = service.submit_workflow("app", {"x": 1.0})
        assert ticket.priority == 7
        assert service.priority_for("app") == 7

    def test_priority_for_unknown_application(self):
        service = self._service()
        with pytest.raises(KeyError):
            service.priority_for("ghost")

    def test_complete_workflow_records_queue_seconds(self):
        service = self._service()
        ticket = service.submit_workflow("app", {"x": 1.0})
        service.complete_workflow(ticket.ticket_id, 12.0, queue_seconds=3.0)
        assert service.ticket(ticket.ticket_id).observed_queue_seconds == 3.0

    def test_complete_workflow_defaults_to_no_queue_and_no_slowdown(self):
        service = self._service()
        ticket = service.submit_workflow("app", {"x": 1.0})
        service.complete_workflow(ticket.ticket_id, 20.0)
        assert service.ticket(ticket.ticket_id).observed_queue_seconds == 0.0
        assert service.ticket(ticket.ticket_id).observed_slowdown is None

    def test_invalid_queue_delay_is_rejected_before_anything_changes(self):
        service = self._service()
        ticket = service.submit_workflow("app", {"x": 2.0})
        with pytest.raises(ValueError, match="queue_seconds"):
            service.complete_workflow(ticket.ticket_id, 20.0, queue_seconds=-1.0)
        assert not service.ticket(ticket.ticket_id).completed
        assert sum(service.recommender_for("app").observation_counts().values()) == 0
        service.complete_workflow(ticket.ticket_id, 20.0, queue_seconds=1.0)
        assert service.ticket(ticket.ticket_id).completed

    def test_complete_workflow_records_slowdown(self):
        service = self._service()
        ticket = service.submit_workflow("app", {"x": 1.0})
        service.complete_workflow(ticket.ticket_id, 12.0, queue_seconds=3.0, slowdown=1.2)
        assert service.ticket(ticket.ticket_id).observed_slowdown == 1.2

    def test_invalid_slowdown_is_rejected_before_anything_changes(self):
        service = self._service()
        ticket = service.submit_workflow("app", {"x": 2.0})
        for bad in (0.0, float("nan")):
            with pytest.raises(ValueError, match="slowdown"):
                service.complete_workflow(ticket.ticket_id, 20.0, slowdown=bad)
        assert not service.ticket(ticket.ticket_id).completed
        assert sum(service.recommender_for("app").observation_counts().values()) == 0
        service.complete_workflow(ticket.ticket_id, 20.0, slowdown=1.1)
        assert service.ticket(ticket.ticket_id).observed_slowdown == 1.1

    def test_queue_aware_application_learns_from_delay(self):
        from repro.core import RewardConfig

        service = self._service(
            reward=RewardConfig(mode="queue_inclusive", queue_weight=1.0)
        )
        first = service.submit_workflow("app", {"x": 1.0})
        second = service.submit_workflow("app", {"x": 2.0})
        hardware = first.recommendation.hardware.name
        service.complete_workflow(first.ticket_id, 10.0, queue_seconds=5.0)
        service.complete_workflow(second.ticket_id, 20.0, queue_seconds=10.0)
        recommender = service.recommender_for("app")
        arm_model = model_of(recommender, hardware)
        if second.recommendation.hardware.name == hardware:
            # Both landed on one arm: effective runtime is 15x.
            assert arm_model.predict(np.asarray([3.0])) == pytest.approx(45.0)
        else:
            # Single observation pins the intercept-free fit at 15x.
            assert arm_model.predict(np.asarray([1.0])) == pytest.approx(15.0)

    def test_slowdown_aware_application_learns_from_inflation(self):
        from repro.core import RewardConfig

        service = self._service(
            reward=RewardConfig(mode="slowdown_inclusive", slowdown_weight=1.0)
        )
        first = service.submit_workflow("app", {"x": 1.0})
        second = service.submit_workflow("app", {"x": 2.0})
        hardware = first.recommendation.hardware.name
        # Observed 20/40 at slowdown 2.0 -> planned 10/20, so the
        # slowdown-inclusive training target is 30x.
        service.complete_workflow(first.ticket_id, 20.0, slowdown=2.0)
        service.complete_workflow(second.ticket_id, 40.0, slowdown=2.0)
        recommender = service.recommender_for("app")
        arm_model = model_of(recommender, hardware)
        if second.recommendation.hardware.name == hardware:
            assert arm_model.predict(np.asarray([3.0])) == pytest.approx(90.0)
        else:
            assert arm_model.predict(np.asarray([1.0])) == pytest.approx(30.0)
        # The audit trail still records the raw observation.
        assert service.ticket(first.ticket_id).observed_runtime == 20.0
        assert service.ticket(first.ticket_id).observed_slowdown == 2.0
        assert [rec.slowdown for rec in recommender.history] == [2.0, 2.0]
