"""Priority/preemption scheduling and autoscaling node-pool tests."""

import math

import pytest

from repro.cluster import (
    AutoscalingNodePool,
    BackfillScheduler,
    ClusterSimulator,
    FIFOScheduler,
    InsufficientCapacityError,
    Node,
    Pod,
    PodPhase,
    PriorityScheduler,
)
from repro.hardware import HardwareCatalog, HardwareConfig, ResourceCostModel
from repro.utils.logging import EventLog

from conftest import constant_workload as _constant_workload

_CATALOG = HardwareCatalog(
    [
        HardwareConfig("small", cpus=2, memory_gb=8),
        HardwareConfig("big", cpus=4, memory_gb=8),
    ]
)


def _cluster(scheduler=None, nodes=None, autoscaler=None, runtimes=None, log=None):
    return ClusterSimulator(
        workload=_constant_workload(runtimes or {"small": 10.0, "big": 10.0}),
        catalog=_CATALOG,
        nodes=nodes or [Node("n", cpus=4, memory_gb=32)],
        scheduler=scheduler,
        seed=0,
        log=log,
        autoscaler=autoscaler,
    )


class TestPrioritySchedulerInvariants:
    def test_higher_class_jumps_pending_queue(self):
        # One big pod occupies the node; a low then a high pod queue behind.
        sim = _cluster(PriorityScheduler(preemption=False))
        running = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=5)
        low = sim.submit({"x": 0.0}, "big", at_time=1.0, priority=0)
        high = sim.submit({"x": 0.0}, "big", at_time=2.0, priority=10)
        sim.run_until_idle()
        # Without preemption the running pod finishes first, then the high
        # class starts before the earlier-submitted low class.
        assert running.start_time == pytest.approx(0.0)
        assert high.start_time == pytest.approx(10.0)
        assert low.start_time == pytest.approx(20.0)

    def test_head_of_line_preserved_within_class(self):
        # Three same-class pods: strict FIFO within the class even when a
        # later pod would fit sooner.
        sim = _cluster(PriorityScheduler(preemption=False))
        first = sim.submit({"x": 0.0}, "small", at_time=0.0, priority=1)
        second = sim.submit({"x": 0.0}, "small", at_time=0.0, priority=1)
        blocked_big = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=1)
        late_small = sim.submit({"x": 0.0}, "small", at_time=0.0, priority=1)
        sim.run_until_idle()
        # The big pod blocks its class's queue; the later small pod must not
        # overtake it (head-of-line per class).
        assert first.start_time == pytest.approx(0.0)
        assert second.start_time == pytest.approx(0.0)
        assert blocked_big.start_time == pytest.approx(10.0)
        assert late_small.start_time == pytest.approx(20.0)

    def test_no_starvation_of_high_class_under_low_stream(self):
        # A steady stream of low-priority smalls must not starve a pending
        # high-priority big request.
        sim = _cluster(PriorityScheduler(preemption=False))
        sim.submit({"x": 0.0}, "small", at_time=0.0, priority=0)
        sim.submit({"x": 0.0}, "small", at_time=0.0, priority=0)
        big = sim.submit({"x": 0.0}, "big", at_time=1.0, priority=10)
        for k in range(8):
            sim.submit({"x": 0.0}, "small", at_time=2.0 + k, priority=0)
        sim.run_until_idle()
        assert big.start_time == pytest.approx(10.0)

    def test_preemption_evicts_lowest_class_first(self):
        sim = _cluster(
            PriorityScheduler(preemption=True), nodes=[Node("n", cpus=4, memory_gb=32)]
        )
        mid = sim.submit({"x": 0.0}, "small", at_time=0.0, priority=5)
        low = sim.submit({"x": 0.0}, "small", at_time=0.0, priority=1)
        high = sim.submit({"x": 0.0}, "small", at_time=3.0, priority=10)
        sim.run_until_idle()
        assert high.start_time == pytest.approx(3.0)
        assert low.preemptions == 1
        assert mid.preemptions == 0

    def test_preempted_pod_restarts_from_scratch(self):
        sim = _cluster(PriorityScheduler(preemption=True))
        low = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=0)
        high = sim.submit({"x": 0.0}, "big", at_time=4.0, priority=10)
        sim.run_until_idle()
        # Evicted at t=4 after 4s of (discarded) work; requeued, restarted at
        # t=14 and ran the full 10s again.
        assert high.start_time == pytest.approx(4.0)
        assert low.preemptions == 1
        assert low.wasted_runtime_seconds == pytest.approx(4.0)
        assert low.start_time == pytest.approx(14.0)
        assert low.finish_time == pytest.approx(24.0)
        assert low.queue_seconds == pytest.approx(10.0)  # 0..0 plus 4..14
        assert low.phase is PodPhase.SUCCEEDED

    def test_preemption_accounting_sums_to_occupancy(self):
        # Useful + wasted run time equals the total time the pod occupied
        # capacity, so the resource-second accounting is conserved.
        sim = _cluster(PriorityScheduler(preemption=True))
        low = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=0)
        sim.submit({"x": 0.0}, "big", at_time=6.0, priority=10)
        (run_low,) = [r for r in sim.run_until_idle() if r.pod_name == low.name]
        cost_model = ResourceCostModel()
        config = _CATALOG["big"]
        occupied_seconds = run_low.record.runtime_seconds + run_low.wasted_runtime_seconds
        assert cost_model.occupancy_cost(config, run_low.record.runtime_seconds) + (
            cost_model.occupancy_cost(config, run_low.wasted_runtime_seconds)
        ) == pytest.approx(cost_model.occupancy_cost(config, occupied_seconds))
        assert run_low.wasted_runtime_seconds == pytest.approx(6.0)
        assert run_low.preemptions == 1

    def test_multi_victim_preemption_preserves_class_fifo(self):
        # Regression: evicting two same-class pods at once must requeue them
        # in submission order, not most-recently-started-first.
        sim = _cluster(PriorityScheduler(preemption=True))
        first = sim.submit({"x": 0.0}, "small", at_time=0.0, priority=0)
        second = sim.submit({"x": 0.0}, "small", at_time=1.0, priority=0)
        sim.submit({"x": 0.0}, "big", at_time=3.0, priority=10)  # evicts both
        sim.run_until_idle()
        assert first.preemptions == 1 and second.preemptions == 1
        # Both restart at t=13 when the big pod frees the 4-CPU node, but the
        # earlier-submitted pod must be scheduled first (same instant here;
        # the ordering shows in the event log's scheduling order).
        assert first.start_time <= second.start_time
        sim2 = _cluster(
            PriorityScheduler(preemption=True), nodes=[Node("n", cpus=2, memory_gb=32)]
        )
        a = sim2.submit({"x": 0.0}, "small", at_time=0.0, priority=0)
        b = sim2.submit({"x": 0.0}, "small", at_time=5.0, priority=0)
        high = sim2.submit({"x": 0.0}, "small", at_time=7.0, priority=10)
        sim2.run_until_idle()
        # Only `a` was running (2-CPU node); it is evicted at t=7 and must
        # restart before `b`, which was submitted later.
        assert high.start_time == pytest.approx(7.0)
        assert a.start_time == pytest.approx(17.0)
        assert b.start_time == pytest.approx(27.0)

    def test_eviction_leftover_capacity_goes_to_the_victim_not_lower_classes(self):
        # Regression: after a preemption frees more capacity than the
        # preemptor needs, the victim must rejoin the queue *before* later
        # pods of lower classes compete for the leftovers.
        sim = _cluster(
            PriorityScheduler(preemption=True), nodes=[Node("n", cpus=8, memory_gb=32)]
        )
        victim = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=5)  # 4 CPUs
        # Fill the rest of the node so the preemptor cannot fit without evicting.
        filler = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=5)
        low = sim.submit({"x": 0.0}, "small", at_time=3.0, priority=0)
        high = sim.submit({"x": 0.0}, "small", at_time=3.0, priority=10)  # 2 CPUs
        sim.run_until(3.0)
        # The eviction freed 4 CPUs, the preemptor took 2: the 2 leftover
        # CPUs must not be handed to the lower-class pod while the evicted
        # priority-5 pod waits.
        assert high.phase is PodPhase.RUNNING
        assert victim.preemptions == 1
        assert low.phase is PodPhase.PENDING
        sim.run_until_idle()
        # The victim restarts as soon as the filler frees capacity at t=10;
        # the low-class pod never ran before it.
        assert victim.start_time == pytest.approx(10.0)
        assert low.start_time >= victim.start_time
        assert filler.preemptions == 0

    def test_equal_priority_never_preempts(self):
        sim = _cluster(PriorityScheduler(preemption=True))
        first = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=5)
        second = sim.submit({"x": 0.0}, "big", at_time=1.0, priority=5)
        sim.run_until_idle()
        assert first.preemptions == 0
        assert second.start_time == pytest.approx(10.0)

    def test_stale_finish_event_is_ignored(self):
        # The preempted pod's original completion event must not fire: the
        # pod completes exactly once, after its restart.
        sim = _cluster(PriorityScheduler(preemption=True))
        low = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=0)
        sim.submit({"x": 0.0}, "big", at_time=2.0, priority=10)
        runs = sim.run_until_idle()
        assert [r.pod_name for r in runs].count(low.name) == 1

    def test_fifo_family_ignores_priority(self):
        for scheduler in (FIFOScheduler(), BackfillScheduler()):
            sim = _cluster(scheduler)
            low = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=0)
            high = sim.submit({"x": 0.0}, "big", at_time=1.0, priority=10)
            sim.run_until_idle()
            assert low.start_time == pytest.approx(0.0)
            assert high.start_time == pytest.approx(10.0)
            assert low.preemptions == 0


class _CountingPriorityScheduler(PriorityScheduler):
    """Counts every service-class evaluation."""

    calls = 0

    def service_class(self, pod):
        self.calls += 1
        return super().service_class(pod)


class TestPendingQueue:
    def test_same_class_victims_restart_in_submission_order(self):
        # Two same-class pods evicted together restart at the same instant;
        # the earlier-submitted one must be scheduled first.
        log = EventLog()
        sim = _cluster(PriorityScheduler(preemption=True), log=log)
        first = sim.submit({"x": 0.0}, "small", at_time=0.0, priority=0)
        second = sim.submit({"x": 0.0}, "small", at_time=1.0, priority=0)
        sim.submit({"x": 0.0}, "big", at_time=3.0, priority=10)  # evicts both
        sim.run_until_idle()
        restarts = [
            r.detail["pod"] for r in log if r.event == "pod_scheduled" and r.time == 13.0
        ]
        assert restarts == [first.name, second.name]

    def test_class_evaluations_are_logarithmic_per_enqueue(self):
        # A deep three-class backlog on one node: the queue is kept in
        # service order as pods arrive and requeue, so each enqueue costs
        # one binary search, never a re-sort of the whole backlog per pass.
        scheduler = _CountingPriorityScheduler(preemption=True)
        sim = _cluster(scheduler, nodes=[Node("n", cpus=8, memory_gb=32)])
        n_pods = 360
        pods = [
            sim.submit(
                {"x": 0.0}, "big" if k % 5 == 0 else "small", at_time=0.25 * k, priority=k % 3
            )
            for k in range(n_pods)
        ]
        runs = sim.run_until_idle()
        assert len(runs) == n_pods
        preemptions = sum(pod.preemptions for pod in pods)
        assert preemptions > 0
        per_enqueue = math.ceil(math.log2(n_pods + 1)) + 1
        assert 0 < scheduler.calls <= (n_pods + preemptions) * per_enqueue


class TestAutoscalingNodePool:
    def _pool(self, **kwargs):
        defaults = dict(
            node_cpus=4,
            node_memory_gb=32,
            max_nodes=2,
            provision_delay_seconds=30.0,
            scale_down_idle_seconds=100.0,
        )
        defaults.update(kwargs)
        return AutoscalingNodePool(**defaults)

    def test_pool_validation(self):
        with pytest.raises(ValueError):
            AutoscalingNodePool(node_cpus=0, node_memory_gb=1)
        with pytest.raises(ValueError):
            self._pool(node_cpus=4.5)
        with pytest.raises(ValueError):
            self._pool(node_memory_gb=float("nan"))
        with pytest.raises(ValueError):
            self._pool(node_gpus=0.5)
        with pytest.raises(ValueError):
            self._pool(max_nodes=0)
        with pytest.raises(ValueError):
            self._pool(provision_delay_seconds=-1.0)
        with pytest.raises(ValueError):
            self._pool(scale_down_idle_seconds=0.0)

    def test_scale_up_adds_capacity_after_delay(self):
        pool = self._pool(provision_delay_seconds=15.0)
        sim = _cluster(nodes=[Node("base", cpus=2, memory_gb=8)], autoscaler=pool)
        pods = [sim.submit({"x": 0.0}, "small", at_time=0.0) for _ in range(3)]
        sim.run_until_idle()
        # Base runs one pod at a time (t=0 and t=10); the pool node landing
        # at t=15 takes the third pod before the base frees again at t=20.
        starts = sorted(p.start_time for p in pods)
        assert starts[0] == pytest.approx(0.0)
        assert starts[1] == pytest.approx(10.0)
        assert starts[2] == pytest.approx(15.0)
        kinds = [e.kind for e in sim.scale_events]
        assert "scale_up_requested" in kinds and "node_provisioned" in kinds

    def test_peek_next_event_time_sees_provisioning(self):
        # Regression: with only a scale-up in flight, the next event IS the
        # provisioning boundary -- peek must report it, not None.
        sim = _cluster(nodes=[Node("base", cpus=2, memory_gb=8)], autoscaler=self._pool())
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        waiting = sim.submit({"x": 0.0}, "big", at_time=0.0)  # only fits the pool node
        sim.run_until(10.0)  # base pod done at 10; big pod awaits provisioning
        assert waiting.phase is PodPhase.PENDING
        assert sim.has_work
        assert sim.peek_next_event_time() == pytest.approx(30.0)

    def test_run_until_never_skips_a_scale_up_boundary(self):
        # Regression: stepping far past the provisioning time must process
        # the scale-up at ITS time -- the pod starts at t=30, not at the
        # run_until horizon.
        sim = _cluster(nodes=[Node("base", cpus=2, memory_gb=8)], autoscaler=self._pool())
        waiting = sim.submit({"x": 0.0}, "big", at_time=0.0)
        sim.run_until(500.0)
        assert waiting.start_time == pytest.approx(30.0)
        assert waiting.finish_time == pytest.approx(40.0)

    def test_request_feasible_via_template_only(self):
        # The big request exceeds the base node but fits a pool node: submit
        # must accept it and the run must land on provisioned capacity.
        sim = _cluster(nodes=[Node("tiny", cpus=1, memory_gb=2)], autoscaler=self._pool())
        pod = sim.submit({"x": 0.0}, "big", at_time=0.0)
        sim.run_until_idle()
        assert pod.phase is PodPhase.SUCCEEDED
        assert pod.node.startswith("autoscale-")

    def test_infeasible_even_for_template_rejected(self):
        pool = self._pool(node_cpus=2, node_memory_gb=4)
        sim = _cluster(nodes=[Node("tiny", cpus=1, memory_gb=2)], autoscaler=pool)
        with pytest.raises(InsufficientCapacityError):
            sim.submit({"x": 0.0}, "big", at_time=0.0)

    def test_max_nodes_caps_the_pool(self):
        pool = self._pool(max_nodes=1)
        sim = _cluster(nodes=[Node("base", cpus=2, memory_gb=8)], autoscaler=pool)
        for _ in range(6):
            sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.run_until_idle()
        provisions = [e for e in sim.scale_events if e.kind == "node_provisioned"]
        assert len(provisions) == 1

    def test_idle_pool_node_drains_but_base_stays(self):
        sim = _cluster(nodes=[Node("base", cpus=2, memory_gb=8)], autoscaler=self._pool())
        for _ in range(3):
            sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.run_until_idle()
        assert [n.name for n in sim.nodes] == ["base"]
        drains = [e for e in sim.scale_events if e.kind == "node_drained"]
        assert len(drains) == len(
            [e for e in sim.scale_events if e.kind == "node_provisioned"]
        )

    def test_reused_node_is_not_drained_by_stale_check(self):
        # A pod landing on the pool node after it went idle must invalidate
        # the pending drain check.
        pool = self._pool(scale_down_idle_seconds=50.0)
        sim = _cluster(nodes=[Node("base", cpus=2, memory_gb=8)], autoscaler=pool)
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.submit({"x": 0.0}, "big", at_time=0.0)  # forces a pool node
        sim.run_until(40.0)  # pool node up at 30, big pod done at 40 -> idle
        late = sim.submit({"x": 0.0}, "big", at_time=70.0)  # reuse before t=90
        sim.run_until_idle()
        assert late.phase is PodPhase.SUCCEEDED
        assert late.start_time == pytest.approx(70.0)

    def test_pool_node_lifetimes_cover_provision_to_drain(self):
        sim = _cluster(nodes=[Node("base", cpus=2, memory_gb=8)], autoscaler=self._pool())
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.submit({"x": 0.0}, "big", at_time=0.0)
        sim.run_until_idle()
        lifetimes = sim.pool_node_lifetimes()
        assert lifetimes, "a pool node should have been provisioned"
        for name, start, end in lifetimes:
            assert name.startswith("autoscale-")
            assert end > start >= 30.0 - 1e-9

    def test_node_cost_hook_prices_lifetimes(self):
        cost_model = ResourceCostModel()
        assert cost_model.node_occupancy_cost(4, 32, 10.0) == pytest.approx(
            (4 * 1.0 + 32 * 0.125) * 10.0
        )
        with pytest.raises(ValueError):
            cost_model.node_occupancy_cost(4, 32, -1.0)
