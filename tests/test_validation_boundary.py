"""The validation contract: every input is checked once, where it enters.

``BanditWare.recommend*`` / ``observe*``, ``RecommendationService``'s
``submit_workflow`` / ``complete_workflow`` and
``ClusterSimulator.submit`` / ``run_until`` are the public entries.  A
bad input must be rejected at the entry with the documented exception type
and message, before any state moves: observation counts, the mutation
version, the history, tickets, ε, the round counter, the exploration RNG,
and the simulator's pod names, runtime RNG and clock.
The layers behind the entries (policies, arm models) trust what they are
given, and a disabled event log builds nothing.
"""

import collections

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, Node
from repro.core import BanditWare
from repro.core.policies import (
    DecayingEpsilonGreedyPolicy,
    GreedyPolicy,
    LinUCBPolicy,
    RandomPolicy,
    ThompsonSamplingPolicy,
)
from repro.core.models import RecursiveLeastSquaresModel
from repro.evaluation import build_scenario, run_scenario
from repro.hardware import HardwareCatalog, HardwareConfig, ndp_catalog
from repro.integration import RecommendationService
from repro.utils import logging as event_logging
from repro.utils.logging import EventLog, NullLog
from repro.workloads import LinearRuntimeWorkload

NAN, INF = float("nan"), float("inf")
GOOD = {"x0": 1.0, "x1": 2.0}


def _warm_bandit(**kwargs) -> BanditWare:
    """A recommender past its seeding rounds, with ε between 0 and 1."""
    bandit = BanditWare(catalog=ndp_catalog(), feature_names=["x0", "x1"], seed=3, **kwargs)
    rng = np.random.default_rng(0)
    for _ in range(12):
        features = {"x0": float(rng.uniform(1, 9)), "x1": float(rng.uniform(1, 9))}
        recommendation = bandit.recommend(features)
        bandit.observe(features, recommendation.hardware, 10.0 * features["x0"])
    return bandit


def _bandit_state(bandit: BanditWare):
    policy = bandit.policy
    return (
        bandit.observation_counts(),
        bandit.version,
        len(bandit.history),
        getattr(policy, "_epsilon", None),
        getattr(policy, "_round", None),
        repr(bandit._rng.bit_generator.state),
        [(m.coefficients.tolist(), m.intercept) for m in bandit.models],
    )


# (entry, bad call, exception type, message fragment).  Two differences from
# before the contract: a non-finite context reached through ``recommend`` was
# rejected only after the policy's ε-draw had advanced the RNG, and a
# wrong-length ``recommend_vector`` context failed inside the model's matmul
# instead of with observe_vector's shape message.
BANDIT_CASES = [
    ("recommend", lambda b: b.recommend({"x0": 1.0}), KeyError, "missing"),
    ("recommend", lambda b: b.recommend({"x0": NAN, "x1": 1.0}), ValueError, "non-finite"),
    ("recommend", lambda b: b.recommend({"x0": INF, "x1": 1.0}), ValueError, "non-finite"),
    ("recommend_vector", lambda b: b.recommend_vector(np.ones(3)), ValueError, "shape"),
    ("recommend_vector", lambda b: b.recommend_vector([1.0, NAN]), ValueError, "non-finite"),
    ("recommend_vector", lambda b: b.recommend_vector([-INF, 1.0]), ValueError, "non-finite"),
    ("observe", lambda b: b.observe({"x1": 1.0}, "H0", 5.0), KeyError, "missing"),
    ("observe", lambda b: b.observe({"x0": NAN, "x1": 1.0}, "H0", 5.0), ValueError, "non-finite"),
    ("observe", lambda b: b.observe(GOOD, "H0", NAN), ValueError, "finite and non-negative"),
    ("observe", lambda b: b.observe(GOOD, "H0", INF), ValueError, "finite and non-negative"),
    ("observe", lambda b: b.observe(GOOD, "H0", -1.0), ValueError, "finite and non-negative"),
    ("observe", lambda b: b.observe(GOOD, "H0", 5.0, queue_seconds=-1.0), ValueError, "queue"),
    ("observe", lambda b: b.observe(GOOD, "H0", 5.0, queue_seconds=NAN), ValueError, "queue"),
    ("observe", lambda b: b.observe(GOOD, "H0", 5.0, slowdown=0.0), ValueError, "slowdown"),
    ("observe", lambda b: b.observe(GOOD, "H0", 5.0, slowdown=INF), ValueError, "slowdown"),
    ("observe", lambda b: b.observe(GOOD, "H9", 5.0), KeyError, "no hardware named"),
    ("observe_vector", lambda b: b.observe_vector(np.ones(3), "H0", 5.0), ValueError, "shape"),
    ("observe_vector", lambda b: b.observe_vector([INF, 1.0], "H0", 5.0), ValueError, "non-finite"),
    ("observe_vector", lambda b: b.observe_vector([1.0, 1.0], "H0", NAN), ValueError, "finite and non-negative"),
    ("observe_vector", lambda b: b.observe_vector([1.0, 1.0], "H0", -2.0), ValueError, "finite and non-negative"),
    ("observe_vector", lambda b: b.observe_vector([1.0, 1.0], 0, 5.0, queue_seconds=INF), ValueError, "queue"),
    ("observe_vector", lambda b: b.observe_vector([1.0, 1.0], 0, 5.0, slowdown=-1.0), ValueError, "slowdown"),
    ("observe_vector", lambda b: b.observe_vector([1.0, 1.0], "H9", 5.0), KeyError, "no hardware named"),
    ("observe_vector", lambda b: b.observe_vector([1.0, 1.0], 3, 5.0), IndexError, "out of range"),
    ("observe_batch", lambda b: b.observe_batch([GOOD, {"x0": 1.0}], ["H0", "H1"], [5.0, 6.0]), KeyError, "missing"),
    ("observe_batch", lambda b: b.observe_batch([GOOD, {"x0": 1.0, "x1": NAN}], ["H0", "H1"], [5.0, 6.0]), ValueError, "non-finite"),
    ("observe_batch", lambda b: b.observe_batch([GOOD, GOOD], ["H0", "H1"], [5.0, INF]), ValueError, "finite and non-negative"),
    ("observe_batch", lambda b: b.observe_batch([GOOD, GOOD], ["H0", "H1"], [5.0, 6.0], queues_seconds=[0.0, -1.0]), ValueError, "queue"),
    ("observe_batch", lambda b: b.observe_batch([GOOD, GOOD], ["H0", "H1"], [5.0, 6.0], slowdowns=[1.0, NAN]), ValueError, "slowdown"),
    ("observe_batch", lambda b: b.observe_batch([GOOD, GOOD], ["H0", "H9"], [5.0, 6.0]), KeyError, "no hardware named"),
]


class TestBanditWareEntries:
    @pytest.mark.parametrize(
        "entry, call, error, fragment",
        BANDIT_CASES,
        ids=[f"{case[0]}-{i}" for i, case in enumerate(BANDIT_CASES)],
    )
    def test_bad_input_rejected_before_any_state_change(self, entry, call, error, fragment):
        bandit = _warm_bandit()
        before = _bandit_state(bandit)
        with pytest.raises(error, match=fragment):
            call(bandit)
        assert _bandit_state(bandit) == before

    @pytest.mark.parametrize("audit", [True, False])
    def test_recommend_vector_rejects_non_finite_context_on_explore_rounds(self, audit):
        # Stricter than before the single-check contract: with audit_estimates
        # off an exploration round computed no estimates, so a NaN context
        # went through unnoticed.  It is now rejected before ε is drawn.
        policy = DecayingEpsilonGreedyPolicy(epsilon0=1.0, decay=1.0, audit_estimates=audit)
        bandit = BanditWare(
            catalog=ndp_catalog(), feature_names=["x0", "x1"], policy=policy, seed=0
        )
        for arm in range(3):  # past the seeding rounds: every round is an ε-draw
            bandit.observe_vector([1.0, 1.0], arm, 5.0)
        before = _bandit_state(bandit)
        with pytest.raises(ValueError, match="non-finite"):
            bandit.recommend_vector(np.asarray([NAN, 1.0]))
        assert _bandit_state(bandit) == before
        assert bandit.recommend_vector(np.asarray([1.0, 1.0])).explored

    @pytest.mark.parametrize(
        "make_policy, factory",
        [
            (GreedyPolicy, None),
            (RandomPolicy, None),
            (lambda: LinUCBPolicy(alpha=1.0), None),
            (ThompsonSamplingPolicy, RecursiveLeastSquaresModel),
        ],
        ids=["greedy", "random", "linucb", "thompson"],
    )
    def test_every_policy_gets_a_checked_context(self, make_policy, factory):
        bandit = BanditWare(
            catalog=ndp_catalog(),
            feature_names=["x0", "x1"],
            policy=make_policy(),
            arm_model_factory=factory,
            seed=0,
        )
        for arm in range(3):
            bandit.observe_vector([1.0, float(arm)], arm, 5.0 + arm)
        before = _bandit_state(bandit)
        for bad in ({"x0": NAN, "x1": 1.0}, {"x0": 1.0, "x1": -INF}):
            with pytest.raises(ValueError, match="non-finite"):
                bandit.recommend(bad)
        assert _bandit_state(bandit) == before

    def test_observe_vector_accepts_numpy_integer_arms(self):
        bandit = BanditWare(catalog=ndp_catalog(), feature_names=["x0", "x1"], seed=0)
        bandit.observe_vector(np.asarray([1.0, 2.0]), np.int64(1), 5.0)
        bandit.observe_vector(np.asarray([1.0, 2.0]), np.uint8(2), 6.0)
        assert bandit.observation_counts() == {"H0": 0, "H1": 1, "H2": 1}
        assert [h.hardware for h in bandit.history] == ["H1", "H2"]

    @pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
    def test_observe_vector_rejects_bool_arms(self, flag):
        bandit = BanditWare(catalog=ndp_catalog(), feature_names=["x0", "x1"], seed=0)
        before = _bandit_state(bandit)
        with pytest.raises(TypeError):
            bandit.observe_vector(np.asarray([1.0, 2.0]), flag, 5.0)
        assert _bandit_state(bandit) == before

    def test_single_row_arms_match_update_batch(self):
        # observe_batch feeds an arm with one row through a one-row
        # update_rows; the result is the sequential observe's, bit for bit.
        batched, sequential = _warm_bandit(), _warm_bandit()
        rows = [({"x0": 2.0, "x1": 3.0}, "H0", 20.0), ({"x0": 4.0, "x1": 1.0}, "H2", 35.0)]
        batched.observe_batch(*map(list, zip(*rows)))
        for features, hardware, runtime in rows:
            sequential.observe(features, hardware, runtime)
        assert _bandit_state(batched)[:3] == _bandit_state(sequential)[:3]
        for a, b in zip(batched.models, sequential.models):
            assert np.array_equal(a.coefficients, b.coefficients)
            assert a.intercept == b.intercept


# --------------------------------------------------------------------- #
# The recommendation service
# --------------------------------------------------------------------- #
def _service(log=None):
    service = RecommendationService(catalog=ndp_catalog(), seed=5, n_shards=2, log=log)
    service.register_application("alpha", "alice", ["x0", "x1"])
    service.register_application("beta", "bob", ["x0", "x1"])
    rng = np.random.default_rng(1)
    for _ in range(8):
        for app in ("alpha", "beta"):
            features = {"x0": float(rng.uniform(1, 9)), "x1": float(rng.uniform(1, 9))}
            ticket = service.submit_workflow(app, features)
            service.complete_workflow(ticket.ticket_id, 5.0 * features["x0"])
    return service


def _service_state(service: RecommendationService):
    tickets = [
        (t.ticket_id, t.completed, t.observed_runtime) for t in service._tickets.values()
    ]
    return (
        [_bandit_state(service.recommender_for(app)) for app in ("alpha", "beta")],
        tickets,
        service._next_ticket,
        len(service.history),
    )


def _pending(service, app="alpha", n=2):
    return [service.submit_workflow(app, {"x0": 2.0, "x1": 3.0}) for _ in range(n)]


SERVICE_CASES = [
    ("submit_workflow", lambda s, t: s.submit_workflow("alpha", {"x0": 1.0}), KeyError, "missing"),
    ("submit_workflow", lambda s, t: s.submit_workflow("alpha", {"x0": NAN, "x1": 1.0}), ValueError, "non-finite"),
    ("submit_workflow", lambda s, t: s.submit_workflow("alpha", dict(GOOD, note="x")), ValueError, "could not convert"),
    ("submit_workflow", lambda s, t: s.submit_workflow("gamma", GOOD), KeyError, "no recommender"),
    ("submit_workflow", lambda s, t: s.submit_workflow("alpha", {"x0": INF, "x1": 1.0}), ValueError, "non-finite"),
    ("complete_workflow", lambda s, t: s.complete_workflow(t[0].ticket_id, NAN), ValueError, "finite and non-negative"),
    ("complete_workflow", lambda s, t: s.complete_workflow(t[0].ticket_id, -1.0), ValueError, "finite and non-negative"),
    ("complete_workflow", lambda s, t: s.complete_workflow(t[0].ticket_id, 5.0, queue_seconds=INF), ValueError, "queue"),
    ("complete_workflow", lambda s, t: s.complete_workflow(t[0].ticket_id, 5.0, slowdown=0.0), ValueError, "slowdown"),
    ("complete_workflow", lambda s, t: s.complete_workflow("wf-999999", 5.0), KeyError, "unknown ticket"),
    ("complete_workflow", lambda s, t: s.complete_workflow(t[1].ticket_id, INF), ValueError, "finite and non-negative"),
    ("complete_workflow", lambda s, t: s.complete_workflow(t[1].ticket_id, 5.0, -1.0), ValueError, "queue"),
    ("complete_workflow", lambda s, t: s.complete_workflow(t[1].ticket_id, 5.0, 0.0, NAN), ValueError, "slowdown"),
    ("complete_workflow", lambda s, t: s.complete_workflow(t[0].ticket_id, "fast"), ValueError, "could not convert"),
]


class TestServiceEntries:
    @pytest.mark.parametrize(
        "entry, call, error, fragment",
        SERVICE_CASES,
        ids=[f"{case[0]}-{i}" for i, case in enumerate(SERVICE_CASES)],
    )
    def test_bad_input_rejected_before_any_state_change(self, entry, call, error, fragment):
        service = _service()
        tickets = _pending(service)
        before = _service_state(service)
        with pytest.raises(error, match=fragment):
            call(service, tickets)
        assert _service_state(service) == before

    def test_rejected_submit_leaves_the_recommender_untouched(self):
        # A non-numeric extra value used to be converted only after the
        # recommendation: ε had decayed, the round counter and the RNG had
        # moved, and no ticket was issued.
        service = _service()
        recommender = service.recommender_for("alpha")
        epsilon, rounds = recommender.policy.epsilon, recommender.policy._round
        rng_state = repr(recommender._rng.bit_generator.state)
        pending = len(service.pending_tickets())
        bad = dict(GOOD, note="x")
        with pytest.raises(ValueError):
            service.submit_workflow("alpha", bad)
        assert recommender.policy.epsilon == epsilon
        assert recommender.policy._round == rounds
        assert repr(recommender._rng.bit_generator.state) == rng_state
        assert len(service.pending_tickets()) == pending


# --------------------------------------------------------------------- #
# The cluster simulator's queued interface
# --------------------------------------------------------------------- #
def _simulator() -> ClusterSimulator:
    """A noisy one-node simulator whose clock has advanced to t=100."""
    workload = LinearRuntimeWorkload(
        feature_ranges={"x": (1.0, 9.0)},
        coefficients={"s": ({"x": 5.0}, 10.0)},
        noise_sigma=0.25,
        name="boundary",
    )
    catalog = HardwareCatalog([HardwareConfig("s", cpus=2, memory_gb=8)])
    sim = ClusterSimulator(workload, catalog, nodes=[Node("n", cpus=4, memory_gb=16)], seed=7)
    sim.run_until(100.0)
    return sim


SIMULATOR_CASES = [
    ("submit", lambda c: c.submit({"x": 5.0}, "s", at_time=5.0), ValueError, "not before"),
    ("submit", lambda c: c.submit({"x": 5.0}, "s", at_time=NAN), ValueError, "finite"),
    ("submit", lambda c: c.submit({"x": 5.0}, "s", at_time=INF), ValueError, "finite"),
    ("submit", lambda c: c.submit({"x": 5.0}, "s", priority=NAN), TypeError, "float"),
    ("submit", lambda c: c.submit({"x": 5.0}, "s", priority=1.5), TypeError, "float"),
    ("submit", lambda c: c.submit({"x": 5.0}, "s", priority=True), TypeError, "bool"),
    ("submit", lambda c: c.submit({"x": 5.0}, "s", priority="1"), TypeError, "str"),
    ("run_until", lambda c: c.run_until(NAN), ValueError, "finite"),
    ("run_until", lambda c: c.run_until(INF), ValueError, "finite"),
]


class TestClusterSimulatorEntries:
    @pytest.mark.parametrize(
        "entry, call, error, fragment",
        SIMULATOR_CASES,
        ids=[f"{case[0]}-{i}" for i, case in enumerate(SIMULATOR_CASES)],
    )
    def test_bad_input_rejected_before_any_state_change(self, entry, call, error, fragment):
        sim = _simulator()
        with pytest.raises(error, match=fragment):
            call(sim)
        assert sim.now == 100.0 and sim._pods == {}

    def test_next_pod_after_rejections_matches_a_fresh_simulator(self):
        sim = _simulator()
        for _, call, error, _ in SIMULATOR_CASES:
            with pytest.raises(error):
                call(sim)
        pod = sim.submit({"x": 5.0}, "s", priority=np.int64(2))
        fresh = _simulator().submit({"x": 5.0}, "s", priority=2)
        assert (pod.name, pod.work_seconds, pod.priority) == (
            fresh.name,
            fresh.work_seconds,
            fresh.priority,
        )


# --------------------------------------------------------------------- #
# A disabled log costs nothing
# --------------------------------------------------------------------- #
#: (source, event) counts of a seed-0 priority-tiers run, recorded before the
#: log calls were guarded by ``EventLog.enabled``.
PRIORITY_TIERS_EVENTS = {
    ("cluster", "pod_finished"): 36,
    ("cluster", "pod_submitted"): 36,
    ("scheduler", "pod_preempted"): 5,
    ("scheduler", "pod_scheduled"): 41,
}


def _cycle(log):
    service = RecommendationService(catalog=ndp_catalog(), seed=0, log=log, n_shards=2)
    service.register_application("a", "alice", ["x"])
    service.register_application("b", "bob", ["x", "y"])
    first = service.submit_workflow("a", {"x": 1.0})
    second = service.submit_workflow("b", {"x": 1.0, "y": 2.0})
    service.complete_workflow(first.ticket_id, 10.0)
    third = service.submit_workflow("a", {"x": 2.0})
    fourth = service.submit_workflow("a", {"x": 3.0})
    service.complete_workflow(second.ticket_id, 5.0, queue_seconds=1.0)
    service.complete_workflow(third.ticket_id, 7.0)
    service.complete_workflow(fourth.ticket_id, 8.0, slowdown=1.5)


@pytest.fixture
def records_built(monkeypatch):
    """Counts every LogRecord constructed while the test runs."""
    built = []
    original = event_logging.LogRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(event_logging.LogRecord, "__init__", counting_init)
    return built


class TestDisabledLog:
    def test_enabled_flags(self):
        assert EventLog().enabled is True
        assert NullLog().enabled is False
        with pytest.raises(AttributeError):
            NullLog().enabled = True

    def test_service_cycle_builds_no_record(self, records_built):
        _cycle(log=None)
        assert records_built == []

    def test_priority_tiers_run_builds_no_record(self, records_built):
        run_scenario(build_scenario("priority-tiers", seed=0))
        assert records_built == []

    def test_event_log_records_the_service_cycle(self):
        log = EventLog()
        _cycle(log)
        assert [(r.source, r.event, r.detail) for r in log] == [
            ("service", "application_registered", {"application": "a", "owner": "alice"}),
            ("service", "application_registered", {"application": "b", "owner": "bob"}),
            ("service", "recommendation", {"ticket": "wf-000001", "application": "a", "hardware": "H0", "explored": True}),
            ("service", "recommendation", {"ticket": "wf-000002", "application": "b", "hardware": "H0", "explored": True}),
            ("service", "workflow_completed", {"ticket": "wf-000001", "runtime": 10.0}),
            ("service", "recommendation", {"ticket": "wf-000003", "application": "a", "hardware": "H1", "explored": True}),
            ("service", "recommendation", {"ticket": "wf-000004", "application": "a", "hardware": "H1", "explored": True}),
            ("service", "workflow_completed", {"ticket": "wf-000002", "runtime": 5.0}),
            ("service", "workflow_completed", {"ticket": "wf-000003", "runtime": 7.0}),
            ("service", "workflow_completed", {"ticket": "wf-000004", "runtime": 8.0}),
        ]
        assert [r.seq for r in log] == list(range(10))

    def test_event_log_records_the_priority_tiers_run(self):
        log = EventLog()
        run_scenario(build_scenario("priority-tiers", seed=0), log=log)
        assert dict(collections.Counter((r.source, r.event) for r in log)) == PRIORITY_TIERS_EVENTS
