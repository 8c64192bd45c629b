"""Event-frontier engine: parity pins, event-budget accounting, invariants.

The per-node finish frontier (one live ``node_next_finish`` event per node,
superseded events cancelled in O(1)) replaces the per-pod tentative-event
scheme.  These tests pin that the change is pure event machinery:

* every registered scenario x {FirstFit, LeastSlowdown} reproduces its
  pre-frontier fingerprint (summary floats, decision streams, accounting-row
  digest) **bit for bit** against ``benchmarks/frontier_parity_reference.json``;
* ``run_until_idle(max_events=...)`` budgets *handled* events only --
  superseded entries are skipped without charge (the pre-frontier engine
  burned most of the budget on stale pops);
* ``peek_next_event_time`` never surfaces a superseded finish time, and the
  experiment engine steps only at instants where events are actually handled;
* the frontier event always sits at the brute-force minimum of the node's
  residents' tentative finishes, the simulator's co-residency record
  matches the node's allocations, and no drained node keeps a frontier --
  audited at every event boundary under preemption, autoscale
  provision/drain, same-timestamp arrival batches, a 64-pod node and
  generated clusters (hypothesis), where work is also conserved through
  each pod's ``progress_log`` and the pending queue stays in service order.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import integrated_work
from repro.cluster import (
    CapacityContention,
    ClusterSimulator,
    FirstFit,
    LeastSlowdown,
    LinearSlowdown,
    NoInterference,
    Node,
    PriorityScheduler,
)
from repro.evaluation.contention import (
    CONTENTION_SCENARIOS,
    build_scenario,
    run_scenario,
    scenario_fingerprint,
)
from repro.evaluation.engine import ExperimentEngine
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.workloads import LinearRuntimeWorkload

REFERENCE_PATH = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "frontier_parity_reference.json"
)
REFERENCE = json.loads(REFERENCE_PATH.read_text())


def _contended_sim(node_cpus: int = 64, node_memory_gb: float = 256.0, **kwargs):
    """A one-fat-node simulator where every pod interferes with every other."""
    catalog = HardwareCatalog([HardwareConfig("s", cpus=2, memory_gb=8)])
    workload = LinearRuntimeWorkload(
        feature_ranges={"size": (1.0, 8.0)},
        coefficients={"s": ({"size": 100.0}, 0.0)},
        noise_sigma=0.0,
        name="stress",
    )
    return ClusterSimulator(
        nodes=[Node("fat", cpus=node_cpus, memory_gb=node_memory_gb)],
        catalog=catalog,
        workload=workload,
        seed=0,
        interference=LinearSlowdown(alpha=0.5),
        **kwargs,
    )


# --------------------------------------------------------------------- #
# Bit-identical parity vs the pre-frontier engine
# --------------------------------------------------------------------- #
class TestFrontierParity:
    """Every scenario x placement must match its pre-frontier fingerprint."""

    @pytest.mark.parametrize("placement", REFERENCE["placements"])
    @pytest.mark.parametrize("name", sorted(REFERENCE["scenarios"]))
    def test_fingerprint_bit_identical(self, name, placement):
        pinned = REFERENCE["scenarios"][name][placement]
        observed = scenario_fingerprint(name, placement, seed=REFERENCE["seed"])
        assert observed["summary"] == pinned["summary"]
        assert observed["decisions"] == pinned["decisions"]
        assert observed["n_rows"] == pinned["n_rows"]
        assert observed["rows_sha256"] == pinned["rows_sha256"]

    def test_reference_covers_every_registered_scenario(self):
        assert sorted(REFERENCE["scenarios"]) == sorted(CONTENTION_SCENARIOS)


# --------------------------------------------------------------------- #
# Event-budget accounting (superseded events are free)
# --------------------------------------------------------------------- #
class TestEventBudget:
    def test_superseded_events_do_not_charge_the_budget(self):
        """A contended run completes within a budget of handled events only.

        40 co-resident pods under LinearSlowdown reschedule every resident on
        every arrival and finish; the pre-frontier engine pushed (and later
        popped) one tentative event per resident per change, burning well
        over half of a tight budget on stale pops.  The frontier engine
        handles exactly one submission and one completion per pod.
        """
        n_pods = 40
        sim = _contended_sim()
        for i in range(n_pods):
            sim.submit({"size": 1.0 + (i % 7)}, "s", at_time=float(i))
        runs = sim.run_until_idle()
        assert len(runs) == n_pods

        stats = sim.event_stats
        assert stats["popped"] == 2 * n_pods  # one submit + one finish each
        assert stats["pending"] == 0
        # Frontier churn happened -- and none of it was handled.
        assert stats["skipped"] > 0
        assert stats["pushed"] == stats["popped"] + stats["skipped"]

        # Regression: the exact handled count is a sufficient budget.  The
        # per-pod-event engine processed ~n^2 events on this workload and
        # raised RuntimeError long before completing under this budget.
        replay = _contended_sim()
        for i in range(n_pods):
            replay.submit({"size": 1.0 + (i % 7)}, "s", at_time=float(i))
        assert len(replay.run_until_idle(max_events=2 * n_pods)) == n_pods

    def test_profile_mirrors_queue_counters(self):
        sim = _contended_sim()
        profile = sim.enable_profiling()
        for i in range(10):
            sim.submit({"size": 2.0}, "s", at_time=float(i))
        sim.run_until_idle()
        stats = sim.event_stats
        assert profile.events_pushed == stats["pushed"]
        assert profile.events_popped == stats["popped"]
        assert profile.events_skipped == stats["skipped"]
        assert profile.events_processed == profile.events_popped

    def test_profile_enabled_mid_run_reports_every_event(self):
        sim = _contended_sim()
        for i in range(10):
            sim.submit({"size": 2.0}, "s", at_time=float(i))
        sim.run_until(4.5)
        profile = sim.enable_profiling()
        sim.run_until_idle()
        stats = sim.event_stats
        reported = profile.as_dict()
        assert reported["events_processed"] == reported["events_popped"] == stats["popped"]
        assert reported["events_pushed"] == stats["pushed"]
        assert reported["events_skipped"] == stats["skipped"]


#: ``run-contention --profile`` work counters at seed 0 -- reschedules, pod
#: rate changes, schedule passes, placement decisions, and events pushed,
#: handled and superseded -- captured while the profile still mirrored the
#: event queue's counters into its own.
PROFILE_KEYS = (
    "reschedule_calls",
    "pods_rescheduled",
    "schedule_passes",
    "placement_calls",
    "events_pushed",
    "events_popped",
    "events_skipped",
)
PROFILE_COUNTERS = {
    "autoscale-burst": (128, 64, 144, 163, 191, 189, 2),
    "hetero-nodes": (64, 212, 64, 32, 95, 64, 31),
    "interference-heavy": (96, 478, 96, 48, 143, 96, 47),
    "interference-light": (100, 136, 100, 50, 131, 100, 31),
    "light": (100, 50, 100, 50, 104, 100, 4),
    "mixed-tenants": (96, 48, 96, 100, 111, 96, 15),
    "noisy-neighbor": (100, 179, 100, 99, 140, 100, 40),
    "priority-tiers": (82, 41, 77, 115, 79, 72, 7),
    "queue-feedback": (128, 64, 144, 152, 189, 180, 9),
    "saturated": (80, 40, 80, 116, 95, 80, 15),
    "spread-vs-pack": (64, 212, 64, 32, 95, 64, 31),
    "zero-contention": (80, 40, 80, 40, 80, 80, 0),
}


@pytest.mark.parametrize("name", sorted(CONTENTION_SCENARIOS))
def test_profile_counters_are_pinned(name):
    engine = ExperimentEngine(build_scenario(name, seed=0), profile=True)
    profile = engine.run().kernel_profile
    assert tuple(int(profile[key]) for key in PROFILE_KEYS) == PROFILE_COUNTERS[name]
    assert profile["events_processed"] == profile["events_popped"]


# --------------------------------------------------------------------- #
# Frontier-aware peek
# --------------------------------------------------------------------- #
class TestPeekNextEventTime:
    def test_peek_never_returns_a_superseded_finish_time(self):
        """A newly contended pod's stale solo finish must not be peeked.

        Pod A runs alone (finish at t=100).  Pod B arrives at t=10; both
        slow to 0.8x (``u = max(2/4, 8/16) = 0.5``), moving A's finish to
        ``10 + 90/0.8 = 122.5``.  The pre-frontier engine kept A's t=100
        event in the heap and ``peek_next_event_time`` reported it, waking
        the experiment engine at a timestamp where nothing happens.
        """
        sim = _contended_sim(node_cpus=4, node_memory_gb=16.0)
        sim.submit({"size": 1.0}, "s", at_time=0.0)
        sim.submit({"size": 1.0}, "s", at_time=10.0)
        sim.run_until(10.0)
        assert sim.peek_next_event_time() == 122.5
        runs = sim.run_until_idle()
        assert runs[0].finish_time == 122.5

    def test_engine_steps_only_where_events_are_handled(self, monkeypatch):
        """Every engine drain handles >= 1 event: no wakeups at stale times."""
        drains = []
        original = ClusterSimulator.run_until

        def counted(self, time):
            before = self.event_stats["popped"]
            runs = original(self, time)
            drains.append(self.event_stats["popped"] - before)
            return runs

        monkeypatch.setattr(ClusterSimulator, "run_until", counted)
        result = run_scenario(build_scenario("interference-heavy", seed=0))
        assert result.rows  # the scenario actually ran
        assert drains and all(handled >= 1 for handled in drains)
        # Steps are bounded by handled events: the engine wakes at most once
        # per live event instant, never for superseded heap backlog.
        assert len(drains) <= sum(drains)


# --------------------------------------------------------------------- #
# Frontier == brute force, audited at every event boundary
# --------------------------------------------------------------------- #
def _audit_frontiers(sim: ClusterSimulator) -> int:
    """Assert each node's frontier event sits at the brute-force minimum.

    Also checks that the co-residency record names exactly each live node's
    allocations, in allocation order, and that no drained node keeps a
    frontier entry.
    """
    live = {node.name for node in sim.nodes}
    assert set(sim._running) == live
    stale = set(sim._frontier) - live
    assert not stale, f"drained nodes {sorted(stale)} keep a frontier entry"
    audited = 0
    for node in sim.nodes:
        residents = sim._running[node.name]
        assert [pod.name for pod in residents] == node.resident_pods
        event = sim._frontier.get(node.name)
        if not residents:
            assert event is None, f"{node.name} has a frontier but no residents"
            continue
        finishes = [pod._finish_at for pod in residents]
        assert None not in finishes, f"{node.name} has unscheduled residents"
        assert event is not None, f"{node.name} has residents but no frontier"
        assert event.alive, f"{node.name} holds a cancelled frontier event"
        assert event.node is node
        assert event.time == min(finishes)
        audited += 1
    return audited


@pytest.fixture
def frontier_audit(monkeypatch):
    """Audit every simulator's frontier invariant before each handled event."""
    counts = {"audits": 0}
    original = ClusterSimulator._handle_event

    def audited(self, event):
        counts["audits"] += _audit_frontiers(self)
        original(self, event)

    monkeypatch.setattr(ClusterSimulator, "_handle_event", audited)
    return counts


class TestFrontierMatchesBruteForce:
    def test_under_preemption(self, frontier_audit):
        """priority-tiers: preemptions evict residents mid-run."""
        result = run_scenario(build_scenario("priority-tiers", seed=0))
        assert result.rows
        assert frontier_audit["audits"] > 0

    def test_under_autoscale_provision_and_drain(self, frontier_audit):
        """autoscale-burst: nodes join mid-run and drain when idle."""
        result = run_scenario(build_scenario("autoscale-burst", seed=0))
        assert result.scale_events  # provisioning actually happened
        assert frontier_audit["audits"] > 0

    def test_under_same_timestamp_topology_changes(self, frontier_audit):
        """A batch of simultaneous arrivals moves one node's frontier
        repeatedly within a single timestamp."""
        sim = _contended_sim()
        for i in range(12):
            sim.submit({"size": 1.0 + (i % 3)}, "s", at_time=5.0)
        runs = sim.run_until_idle()
        assert len(runs) == 12
        assert frontier_audit["audits"] > 0

    def test_on_a_crowded_node(self, frontier_audit):
        """64 co-resident pods, far past the handful any registered scenario
        puts on one node: every reschedule re-integrates the whole record,
        and work is still conserved."""
        sim = _contended_sim(node_cpus=128, node_memory_gb=512.0)
        for i in range(64):
            sim.submit({"size": 1.0 + (i % 8)}, "s", at_time=float(i % 4))
        sim.run_until(3.5)
        assert len(sim._running["fat"]) == 64
        runs = sim.run_until_idle()
        assert len(runs) == 64
        assert frontier_audit["audits"] > 0
        for run in runs:
            pod = sim._pods[run.pod_name]
            assert integrated_work(pod) == pytest.approx(pod.work_seconds, rel=1e-9)

    def test_equal_finishes_complete_in_allocation_order(self):
        """A frontier tie goes to the earliest resident in allocation order."""
        sim = _contended_sim()
        pods = [sim.submit({"size": 2.0}, "s", at_time=5.0) for _ in range(4)]
        runs = sim.run_until_idle()
        assert [run.pod_name for run in runs] == [pod.name for pod in pods]


# --------------------------------------------------------------------- #
# Generated clusters: audit at every event, conserve work
# --------------------------------------------------------------------- #
INTERFERENCE_CLASSES = ("standard", "numa-quiet", "io-noisy")
INTERFERENCE_MODELS = (
    NoInterference(),
    LinearSlowdown(alpha=0.7),
    LinearSlowdown(alpha=0.7, class_weights={"numa-quiet": 0.25, "io-noisy": 2.5}),
    CapacityContention(cpu_fraction=0.6, memory_fraction=0.8),
)


class AuditedSimulator(ClusterSimulator):
    """Runs the frontier and queue-order audits after every handled event."""

    audits = 0

    def _handle_event(self, event):
        super()._handle_event(event)
        self.audits += _audit_frontiers(self)
        classes = [self.scheduler.service_class(pod) for pod in self._pending]
        assert classes == sorted(classes), f"pending queue out of service order: {classes}"


@st.composite
def cluster_cases(draw):
    """1-3 nodes, a small integer catalog and a priority/preemption stream.

    Plain data, so a failing case prints readably; ``_audited_sim`` builds
    and loads the simulator.
    """
    nodes = [
        (
            draw(st.integers(4, 12)),  # cpus
            draw(st.integers(16, 48)),  # memory_gb
            draw(st.integers(1 if i == 0 else 0, 2)),  # gpus: node 0 fits every request
            draw(st.sampled_from(INTERFERENCE_CLASSES)),
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    requests = [
        (draw(st.integers(1, 4)), draw(st.integers(1, 16)), draw(st.integers(0, 1)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    stream = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(requests) - 1),  # hardware index
                st.integers(0, 40),  # arrival time
                st.integers(0, 2),  # priority
                st.integers(1, 8),  # size feature
            ),
            min_size=1,
            max_size=20,
        )
    )
    return {
        "nodes": nodes,
        "requests": requests,
        "stream": stream,
        "interference": draw(st.sampled_from(INTERFERENCE_MODELS)),
        "placement": draw(st.sampled_from((FirstFit, LeastSlowdown))),
        "seed": draw(st.integers(0, 2**16)),
    }


def _audited_sim(case) -> AuditedSimulator:
    catalog = HardwareCatalog(
        [
            HardwareConfig(f"h{j}", cpus=cpus, memory_gb=memory_gb, gpus=gpus)
            for j, (cpus, memory_gb, gpus) in enumerate(case["requests"])
        ]
    )
    workload = LinearRuntimeWorkload(
        feature_ranges={"size": (1.0, 8.0)},
        coefficients={hw.name: ({"size": 10.0 * hw.cpus}, 5.0) for hw in catalog},
        noise_sigma=0.25,
        name="audited",
    )
    sim = AuditedSimulator(
        workload,
        catalog,
        nodes=[
            Node(f"n{i}", cpus=cpus, memory_gb=memory_gb, gpus=gpus, interference_class=tier)
            for i, (cpus, memory_gb, gpus, tier) in enumerate(case["nodes"])
        ],
        scheduler=PriorityScheduler(placement=case["placement"]()),
        seed=case["seed"],
        interference=case["interference"],
    )
    for hardware, arrival, priority, size in case["stream"]:
        sim.submit({"size": float(size)}, f"h{hardware}", at_time=float(arrival), priority=priority)
    return sim


class TestGeneratedClusters:
    @settings(max_examples=120, deadline=None)
    @given(cluster_cases())
    def test_frontier_audit_and_work_conservation(self, case):
        sim = _audited_sim(case)
        runs = sim.run_until_idle()
        assert len(runs) == len(case["stream"])
        assert sim.audits > 0
        for run in runs:
            pod = sim._pods[run.pod_name]
            assert integrated_work(pod) == pytest.approx(pod.work_seconds, rel=1e-9)
            if len(pod.progress_log) == 1 and pod.progress_log[0][1] == 1.0:
                # Never slowed: the observed runtime is the drawn one, bit for bit.
                assert run.record.runtime_seconds == run.planned_runtime_seconds
