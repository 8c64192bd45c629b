"""Tests for the cluster simulator substrate."""

import numpy as np
import pytest

from repro.cluster import (
    BackfillScheduler,
    BestFit,
    ClusterSimulator,
    EventQueue,
    FIFOScheduler,
    InsufficientCapacityError,
    Node,
    Pod,
    PodPhase,
)
from repro.hardware import HardwareCatalog, HardwareConfig, ndp_catalog
from repro.utils.logging import EventLog
from repro.workloads import CyclesWorkload


@pytest.fixture
def request_small():
    return HardwareConfig("H0", cpus=2, memory_gb=16)


@pytest.fixture
def request_large():
    return HardwareConfig("H2", cpus=4, memory_gb=16)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(5.0, "b")
        q.push(1.0, "a")
        assert q.pop().kind == "a"
        assert q.pop().kind == "b"

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop().kind == "first"

    def test_now_advances(self):
        q = EventQueue()
        q.push(3.0, "x")
        q.pop()
        assert q.now == 3.0

    def test_cannot_schedule_in_the_past(self):
        q = EventQueue()
        q.push(2.0, "x")
        q.pop()
        with pytest.raises(ValueError):
            q.push(1.0, "late")

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_drain_until(self):
        q = EventQueue()
        q.push(1.0, "a")
        q.push(2.0, "b")
        seen = []
        processed = q.drain(lambda e: seen.append(e.kind), until=1.5)
        assert processed == 1
        assert seen == ["a"]
        assert q.now == 1.5

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, "x")

    def test_drain_until_advances_clock_with_no_events(self):
        q = EventQueue()
        processed = q.drain(lambda e: None, until=7.5)
        assert processed == 0
        assert q.now == 7.5

    def test_drain_until_before_next_event_leaves_it_queued(self):
        q = EventQueue()
        q.push(5.0, "later")
        processed = q.drain(lambda e: None, until=2.0)
        assert processed == 0
        assert q.now == 2.0
        assert q.peek_time() == 5.0

    def test_drain_until_in_the_past_does_not_rewind_clock(self):
        q = EventQueue()
        q.push(4.0, "x")
        q.pop()
        assert q.drain(lambda e: None, until=1.0) == 0
        assert q.now == 4.0

    def test_drain_processes_handler_pushed_events_within_window(self):
        q = EventQueue()
        seen = []

        def handler(event):
            seen.append((event.kind, event.time))
            if event.kind == "first":
                q.push(event.time + 1.0, "chained")
                q.push(event.time + 10.0, "outside")

        q.push(1.0, "first")
        processed = q.drain(handler, until=5.0)
        assert processed == 2
        assert seen == [("first", 1.0), ("chained", 2.0)]
        assert q.peek_time() == 11.0
        assert q.now == 5.0

    def test_drain_without_until_processes_everything(self):
        q = EventQueue()
        q.push(1.0, "a")
        q.push(2.0, "b")
        assert q.drain(lambda e: None) == 2
        assert not q

    def test_cancel_hides_event_from_pop(self):
        q = EventQueue()
        stale = q.push(1.0, "stale")
        q.push(2.0, "live")
        q.cancel(stale)
        assert q.pop().kind == "live"
        assert q.now == 2.0  # the clock never visited the cancelled time

    def test_cancel_updates_len_and_bool(self):
        q = EventQueue()
        event = q.push(1.0, "x")
        assert len(q) == 1 and q
        q.cancel(event)
        assert len(q) == 0 and not q

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        event = q.push(1.0, "x")
        other = q.push(2.0, "y")
        q.cancel(event)
        q.cancel(event)
        assert len(q) == 1
        assert q.pop() is other

    def test_peek_time_skips_cancelled_head(self):
        q = EventQueue()
        stale = q.push(1.0, "stale")
        q.push(3.0, "live")
        q.cancel(stale)
        assert q.peek_time() == 3.0

    def test_peek_time_empty_after_cancelling_everything(self):
        q = EventQueue()
        q.cancel(q.push(1.0, "x"))
        assert q.peek_time() is None

    def test_drain_does_not_count_cancelled_events(self):
        q = EventQueue()
        q.cancel(q.push(1.0, "stale"))
        q.push(2.0, "live")
        seen = []
        assert q.drain(lambda e: seen.append(e.kind)) == 1
        assert seen == ["live"]

    def test_pop_after_cancelling_everything_raises(self):
        q = EventQueue()
        q.cancel(q.push(1.0, "x"))
        with pytest.raises(IndexError):
            q.pop()

    def test_traffic_counters(self):
        q = EventQueue()
        q.push(1.0, "a")
        q.cancel(q.push(2.0, "b"))
        q.push(3.0, "c")
        q.drain(lambda e: None)
        assert (q.pushed, q.popped, q.skipped) == (3, 2, 1)
        assert q.pushed == q.popped + q.skipped + len(q)

    def test_push_frontier_event_shape(self):
        from repro.cluster.events import NODE_NEXT_FINISH

        q = EventQueue()
        node = Node("n", cpus=4, memory_gb=16)
        event = q.push_frontier(4.0, node)
        assert event.kind is NODE_NEXT_FINISH
        assert event.node is node
        assert q.push(5.0, "other").node is None
        assert event.payload is None  # the hot path allocates no dict
        assert event.alive
        assert q.pop() is event

    def test_push_frontier_rejects_past_times(self):
        q = EventQueue()
        q.push(5.0, "x")
        q.pop()
        with pytest.raises(ValueError):
            q.push_frontier(1.0, 0)


class TestNode:
    def test_allocation_reduces_free_capacity(self, request_small):
        node = Node("n", cpus=8, memory_gb=32)
        node.allocate("pod-1", request_small)
        assert node.free_cpus == 6
        assert node.free_memory_gb == 16

    def test_fits_checks_all_dimensions(self, request_small):
        node = Node("n", cpus=2, memory_gb=8)
        assert not node.fits(request_small)  # memory too small

    def test_over_allocation_rejected(self, request_large):
        node = Node("n", cpus=4, memory_gb=16)
        node.allocate("pod-1", request_large)
        with pytest.raises(InsufficientCapacityError):
            node.allocate("pod-2", request_large)

    def test_duplicate_pod_rejected(self, request_small):
        node = Node("n", cpus=8, memory_gb=32)
        node.allocate("pod-1", request_small)
        with pytest.raises(ValueError):
            node.allocate("pod-1", request_small)

    def test_release_restores_capacity(self, request_small):
        node = Node("n", cpus=8, memory_gb=32)
        node.allocate("pod-1", request_small)
        node.release("pod-1")
        assert node.free_cpus == 8

    def test_release_unknown_pod(self):
        with pytest.raises(KeyError):
            Node("n", cpus=1, memory_gb=1).release("ghost")

    def test_utilisation(self, request_small):
        node = Node("n", cpus=4, memory_gb=32)
        node.allocate("pod-1", request_small)
        util = node.utilisation()
        assert util["cpus"] == 0.5
        assert util["memory_gb"] == 0.5

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Node("n", cpus=0, memory_gb=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cpus", 3.7),
            ("cpus", True),
            ("gpus", 0.5),
            ("gpus", True),
            ("gpus", -1),
            ("memory_gb", float("nan")),
            ("memory_gb", float("inf")),
        ],
    )
    def test_counts_are_integers_and_memory_finite(self, field, value):
        capacity = dict(cpus=4, memory_gb=8.0, gpus=0)
        capacity[field] = value
        with pytest.raises(ValueError, match=field):
            Node("n", **capacity)

    def test_numpy_integer_counts_become_ints(self):
        node = Node("n", cpus=np.int64(4), memory_gb=8, gpus=np.int32(2))
        assert (node.cpus, node.gpus) == (4, 2)
        assert (type(node.cpus), type(node.gpus)) == (int, int)


class TestPodLifecycle:
    def test_normal_transitions(self, request_small):
        pod = Pod("p", request_small)
        pod.mark_submitted(0.0)
        pod.mark_running(5.0, "node-a")
        pod.mark_finished(25.0)
        assert pod.phase is PodPhase.SUCCEEDED
        assert pod.queue_seconds == 5.0

    def test_cannot_finish_before_running(self, request_small):
        pod = Pod("p", request_small)
        pod.mark_submitted(0.0)
        with pytest.raises(RuntimeError):
            pod.mark_finished(1.0)

    def test_cannot_run_twice(self, request_small):
        pod = Pod("p", request_small)
        pod.mark_submitted(0.0)
        pod.mark_running(1.0, "n")
        with pytest.raises(RuntimeError):
            pod.mark_running(2.0, "n")

    def test_double_submit_rejected(self, request_small):
        pod = Pod("p", request_small)
        pod.mark_submitted(0.0)
        with pytest.raises(RuntimeError):
            pod.mark_submitted(1.0)

    def test_only_succeeded_is_terminal(self, request_small):
        assert {phase.value for phase in PodPhase} == {"Pending", "Running", "Succeeded"}
        pod = Pod("p", request_small)
        assert pod.phase is PodPhase.PENDING
        pod.mark_submitted(0.0)
        pod.mark_running(0.0, "n")
        assert pod.phase is PodPhase.RUNNING
        pod.mark_finished(1.0)
        assert pod.phase is PodPhase.SUCCEEDED
        with pytest.raises(RuntimeError):
            pod.mark_finished(2.0)


class TestSchedulers:
    def test_fifo_picks_first_fitting_node(self, request_small):
        nodes = [Node("a", cpus=1, memory_gb=4), Node("b", cpus=8, memory_gb=32)]
        decision = FIFOScheduler().schedule(Pod("p", request_small), nodes)
        assert decision.node_name == "b"
        assert nodes[1].allocations

    def test_fifo_no_capacity(self, request_large):
        nodes = [Node("a", cpus=2, memory_gb=8)]
        decision = FIFOScheduler().schedule(Pod("p", request_large), nodes)
        assert not decision.placed

    def test_best_fit_prefers_tightest_node(self, request_small):
        nodes = [Node("roomy", cpus=32, memory_gb=128), Node("tight", cpus=2, memory_gb=16)]
        decision = BackfillScheduler(placement=BestFit()).schedule(Pod("p", request_small), nodes)
        assert decision.node_name == "tight"

    def test_best_fit_no_capacity(self, request_large):
        nodes = [Node("a", cpus=2, memory_gb=8)]
        decision = BackfillScheduler(placement=BestFit()).select_node(Pod("p", request_large), nodes)
        assert decision.node_name is None

    def test_queue_disciplines(self):
        # FIFO preserves strict service order; backfill skips ahead.
        assert FIFOScheduler().head_of_line_blocking
        assert not BackfillScheduler().head_of_line_blocking

    def test_backfill_places_like_fifo(self, request_small):
        nodes = [Node("a", cpus=1, memory_gb=4), Node("b", cpus=8, memory_gb=32)]
        decision = BackfillScheduler().select_node(Pod("p", request_small), nodes)
        assert decision.node_name == "b"


class TestClusterSimulator:
    def _make(self, **kwargs):
        return ClusterSimulator(
            workload=CyclesWorkload(),
            catalog=ndp_catalog(),
            seed=0,
            **kwargs,
        )

    def test_run_workload_returns_record(self):
        sim = self._make()
        run = sim.run_workload({"num_tasks": 100}, "H0")
        assert run.record.hardware == "H0"
        assert run.record.runtime_seconds > 0
        assert run.queue_seconds == 0.0

    def test_run_workload_accepts_config_object(self):
        sim = self._make()
        run = sim.run_workload({"num_tasks": 100}, ndp_catalog()["H1"])
        assert run.record.hardware == "H1"

    def test_run_workload_unknown_hardware(self):
        sim = self._make()
        with pytest.raises(KeyError):
            sim.run_workload({"num_tasks": 100}, "H9")

    def test_queued_execution_completes_all_pods(self):
        sim = self._make()
        pods = [sim.submit({"num_tasks": 100}, "H0") for _ in range(6)]
        runs = sim.run_until_idle()
        assert len(runs) == 6
        assert all(p.phase is PodPhase.SUCCEEDED for p in pods)

    def test_contention_produces_queueing(self):
        # One tiny node: the second pod must wait for the first to finish.
        sim = ClusterSimulator(
            workload=CyclesWorkload(),
            catalog=ndp_catalog(),
            nodes=[Node("tiny", cpus=2, memory_gb=16)],
            seed=0,
        )
        sim.submit({"num_tasks": 100}, "H0", at_time=0.0)
        sim.submit({"num_tasks": 100}, "H0", at_time=0.0)
        runs = sim.run_until_idle()
        queue_times = sorted(r.queue_seconds for r in runs)
        assert queue_times[0] == 0.0
        assert queue_times[1] > 0.0

    def test_impossible_request_raises(self):
        sim = ClusterSimulator(
            workload=CyclesWorkload(),
            catalog=ndp_catalog(),
            nodes=[Node("tiny", cpus=1, memory_gb=1)],
            seed=0,
        )
        with pytest.raises(RuntimeError, match="never be scheduled"):
            sim.submit({"num_tasks": 100}, "H0")

    def test_event_log_records_lifecycle(self):
        log = EventLog()
        sim = ClusterSimulator(
            workload=CyclesWorkload(), catalog=ndp_catalog(), seed=0, log=log
        )
        sim.submit({"num_tasks": 100}, "H0")
        sim.run_until_idle()
        events = {rec.event for rec in log}
        assert {"pod_submitted", "pod_scheduled", "pod_finished"} <= events

    def test_simulation_clock_advances(self):
        sim = self._make()
        sim.submit({"num_tasks": 100}, "H0")
        sim.run_until_idle()
        assert sim.now > 0

    def test_runtimes_are_plausible(self):
        sim = self._make()
        expected = CyclesWorkload().expected_runtime({"num_tasks": 100}, ndp_catalog()["H0"])
        run = sim.run_workload({"num_tasks": 100}, "H0")
        assert run.record.runtime_seconds == pytest.approx(expected, rel=0.5)

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator(workload=CyclesWorkload(), catalog=ndp_catalog(), nodes=[])


from conftest import constant_workload as _constant_workload

_SIZED_CATALOG = HardwareCatalog(
    [
        HardwareConfig("small", cpus=2, memory_gb=8),
        HardwareConfig("big", cpus=4, memory_gb=8),
    ]
)


class TestFIFOStarvation:
    """Regression: a large pod at the head of the queue must not be starved."""

    def _cluster(self, scheduler):
        return ClusterSimulator(
            workload=_constant_workload({"small": 10.0, "big": 10.0}),
            catalog=_SIZED_CATALOG,
            nodes=[Node("n", cpus=4, memory_gb=32)],
            scheduler=scheduler,
            seed=0,
        )

    def _submit_stream(self, sim):
        """Two running small pods, a big pod, then a stream of small pods."""
        pods = [sim.submit({"x": 0.0}, "small", at_time=0.0) for _ in range(2)]
        pods.append(sim.submit({"x": 0.0}, "big", at_time=0.0))
        pods.extend(sim.submit({"x": 0.0}, "small", at_time=0.0) for _ in range(2))
        sim.run_until_idle()
        return pods

    def test_fifo_blocks_head_of_line(self):
        sim = self._cluster(FIFOScheduler())
        a1, a2, big, d, e = self._submit_stream(sim)
        # The big pod starts as soon as both initial pods release capacity,
        # *before* the small pods queued behind it.
        assert big.start_time == pytest.approx(10.0)
        assert d.start_time == pytest.approx(20.0)
        assert e.start_time == pytest.approx(20.0)

    def test_backfill_skips_ahead(self):
        sim = self._cluster(BackfillScheduler())
        a1, a2, big, d, e = self._submit_stream(sim)
        # The seed's old behaviour, now opt-in: later small pods jump the
        # queue and the big pod waits for a fully free node.
        assert d.start_time == pytest.approx(10.0)
        assert e.start_time == pytest.approx(10.0)
        assert big.start_time == pytest.approx(20.0)

    def test_fifo_starvation_bounded_under_continuous_small_stream(self):
        # Small pods keep arriving while the big pod is queued; strict FIFO
        # still gets the big pod on within one drain of the initial pods.
        sim = self._cluster(FIFOScheduler())
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        big = sim.submit({"x": 0.0}, "big", at_time=1.0)
        for k in range(8):
            sim.submit({"x": 0.0}, "small", at_time=2.0 + k)
        sim.run_until_idle()
        assert big.start_time == pytest.approx(10.0)

    def test_infeasible_submit_fails_fast_without_wedging_the_queue(self):
        # An infeasible pod would block every later pod under head-of-line
        # FIFO, so submit rejects it at the point of error; the queue keeps
        # flowing for feasible pods.
        sim = ClusterSimulator(
            workload=_constant_workload({"small": 10.0, "big": 10.0}),
            catalog=_SIZED_CATALOG,
            nodes=[Node("tiny", cpus=2, memory_gb=16)],
            scheduler=FIFOScheduler(),
            seed=0,
        )
        with pytest.raises(InsufficientCapacityError, match="never be scheduled"):
            sim.submit({"x": 0.0}, "big", at_time=0.0)
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        assert len(sim.run_until_idle()) == 1


class TestRunWorkloadFeasibility:
    """Regression: run_workload must not fabricate a node it cannot use."""

    def _cluster(self, nodes, **kwargs):
        return ClusterSimulator(
            workload=CyclesWorkload(),
            catalog=ndp_catalog(),
            nodes=nodes,
            seed=0,
            **kwargs,
        )

    def test_infeasible_request_raises(self):
        sim = self._cluster([Node("tiny", cpus=1, memory_gb=1)])
        with pytest.raises(InsufficientCapacityError):
            sim.run_workload({"num_tasks": 100}, "H0")

    def test_reports_a_node_that_actually_fits(self):
        sim = self._cluster(
            [Node("small-node", cpus=2, memory_gb=16), Node("big-node", cpus=32, memory_gb=128)]
        )
        run = sim.run_workload({"num_tasks": 100}, "H2")  # H2 needs 4 CPUs
        assert run.node == "big-node"

    def test_feasibility_ignores_queued_occupancy(self):
        # A synchronous run executes "alone": pods occupying the cluster in
        # queued mode do not make it infeasible.
        sim = self._cluster([Node("n", cpus=4, memory_gb=32)])
        sim.submit({"num_tasks": 100}, "H2", at_time=0.0)
        sim.run_until(0.0)  # schedule the pod so it holds all 4 CPUs
        run = sim.run_workload({"num_tasks": 100}, "H2")
        assert run.node == "n"
        sim.run_until_idle()

    def test_modes_agree_on_feasibility(self):
        # What raises synchronously is rejected at submit in queued mode too.
        sync = self._cluster([Node("tiny", cpus=1, memory_gb=1)])
        with pytest.raises(InsufficientCapacityError):
            sync.run_workload({"num_tasks": 100}, "H0")
        queued = self._cluster([Node("tiny", cpus=1, memory_gb=1)])
        with pytest.raises(InsufficientCapacityError, match="never be scheduled"):
            queued.submit({"num_tasks": 100}, "H0")

    def test_best_fit_reports_its_own_node_choice(self):
        sim = self._cluster(
            [Node("roomy", cpus=32, memory_gb=128), Node("tight", cpus=2, memory_gb=16)],
            scheduler=BackfillScheduler(placement=BestFit()),
        )
        run = sim.run_workload({"num_tasks": 100}, "H0")  # H0 needs 2 CPUs
        assert run.node == "tight"


class TestRunUntil:
    def _cluster(self):
        return ClusterSimulator(
            workload=_constant_workload({"small": 10.0, "big": 10.0}),
            catalog=_SIZED_CATALOG,
            nodes=[Node("n", cpus=8, memory_gb=32)],
            seed=0,
        )

    def test_partial_progress_and_clock(self):
        sim = self._cluster()
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.submit({"x": 0.0}, "small", at_time=4.0)
        assert sim.run_until(5.0) == []  # both scheduled, none finished
        assert sim.now == 5.0
        assert sim.has_work
        runs = sim.run_until(20.0)
        assert len(runs) == 2
        assert sim.now == 20.0
        assert not sim.has_work

    def test_clock_advances_without_events(self):
        sim = self._cluster()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_peek_next_event_time(self):
        sim = self._cluster()
        assert sim.peek_next_event_time() is None
        sim.submit({"x": 0.0}, "small", at_time=3.0)
        assert sim.peek_next_event_time() == 3.0


class TestMultiWorkloadSubmit:
    def test_per_pod_workload_drives_runtime_and_application(self):
        fast = _constant_workload({"small": 5.0, "big": 5.0}, name="fast-app")
        slow = _constant_workload({"small": 50.0, "big": 50.0}, name="slow-app")
        sim = ClusterSimulator(
            workload=fast,
            catalog=_SIZED_CATALOG,
            nodes=[Node("n", cpus=8, memory_gb=32)],
            seed=0,
        )
        sim.submit({"x": 0.0}, "small", at_time=0.0)                  # default workload
        sim.submit({"x": 0.0}, "small", at_time=0.0, workload=slow)   # other tenant
        runs = sim.run_until_idle()
        by_app = {r.record.application: r.record.runtime_seconds for r in runs}
        assert by_app == {"fast-app": 5.0, "slow-app": 50.0}

    def test_completed_runs_carry_pod_names(self):
        sim = ClusterSimulator(
            workload=_constant_workload({"small": 5.0, "big": 5.0}),
            catalog=_SIZED_CATALOG,
            nodes=[Node("n", cpus=8, memory_gb=32)],
            seed=0,
        )
        pod = sim.submit({"x": 0.0}, "small")
        (run,) = sim.run_until_idle()
        assert run.pod_name == pod.name
        assert run.finish_time == pytest.approx(5.0)
        sync_run = sim.run_workload({"x": 0.0}, "small")
        assert sync_run.pod_name is None
