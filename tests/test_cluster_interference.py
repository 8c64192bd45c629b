"""Progress-based execution and pluggable interference models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AutoscalingNodePool,
    CapacityContention,
    ClusterSimulator,
    FIFOScheduler,
    InterferenceModel,
    LeastSlowdown,
    LinearSlowdown,
    Node,
    NoInterference,
    PlacementContext,
    Pod,
    PodPhase,
    PriorityScheduler,
)
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.workloads import LinearRuntimeWorkload

from conftest import constant_workload as _constant_workload

_CATALOG = HardwareCatalog(
    [
        HardwareConfig("small", cpus=2, memory_gb=8),
        HardwareConfig("big", cpus=4, memory_gb=8),
    ]
)


def _cluster(runtimes=None, interference=None, nodes=None, scheduler=None, autoscaler=None, workload=None):
    return ClusterSimulator(
        workload=workload or _constant_workload(runtimes or {"small": 10.0, "big": 10.0}),
        catalog=_CATALOG,
        nodes=nodes or [Node("n", cpus=8, memory_gb=32)],
        scheduler=scheduler,
        seed=0,
        autoscaler=autoscaler,
        interference=interference,
    )


def _oracle_speeds(model, node, pods):
    """Each built-in model's docstring formula, written out pod by pod.

    ``LinearSlowdown``: ``1 / (1 + alpha_node * u)`` with ``u`` the
    co-residents' bottleneck share -- their summed request over the node's
    capacity, maximised across CPU, memory and (when the node has any) GPU.
    ``CapacityContention``: the shared throttle ``min over r of
    min(1, usable_r / allocated_r)`` of the residents' totals.  A lone pod
    runs at 1.0 in every model.
    """
    speeds = []
    for pod in pods:
        others = [p for p in pods if p is not pod]
        if not others or isinstance(model, NoInterference):
            speeds.append(1.0)
        elif isinstance(model, LinearSlowdown):
            u = max(
                sum(p.request.cpus for p in others) / node.cpus,
                math.fsum(p.request.memory_gb for p in others) / node.memory_gb,
            )
            if node.gpus:
                u = max(u, sum(p.request.gpus for p in others) / node.gpus)
            speeds.append(1.0 / (1.0 + model.node_alpha(node) * u))
        else:
            factors = []
            memory = math.fsum(p.request.memory_gb for p in pods)
            for capacity, fraction, total in (
                (node.cpus, model.cpu_fraction, sum(p.request.cpus for p in pods)),
                (node.memory_gb, model.memory_fraction, memory),
                (node.gpus, model.gpu_fraction, sum(p.request.gpus for p in pods)),
            ):
                if capacity and total:
                    factors.append(min(1.0, fraction * capacity / total))
            speeds.append(min(factors, default=1.0))
    return speeds


def _bits(speeds):
    """Rates as hex strings: equal lists mean bit-identical floats."""
    return [float.hex(s) for s in speeds]


_CLASSES = ("standard", "io-noisy", "numa-quiet")


@st.composite
def _node_speeds_cases(draw):
    """A built-in model, a node (with or without GPUs, of any class) and 0-8
    residents with integer-valued requests."""
    node = Node(
        "n",
        cpus=draw(st.integers(1, 64)),
        memory_gb=float(draw(st.integers(1, 256))),
        gpus=draw(st.sampled_from([0, 0, 1, 2, 8])),
        interference_class=draw(st.sampled_from(_CLASSES)),
    )
    fraction = st.floats(0.05, 1.0)
    model = draw(
        st.one_of(
            st.just(NoInterference()),
            st.builds(
                LinearSlowdown,
                alpha=st.floats(0.0, 4.0),
                class_weights=st.none()
                | st.dictionaries(st.sampled_from(_CLASSES), st.floats(0.0, 3.0)),
            ),
            st.builds(
                CapacityContention,
                cpu_fraction=fraction,
                memory_fraction=fraction,
                gpu_fraction=fraction,
            ),
        )
    )
    shapes = st.builds(
        HardwareConfig,
        name=st.just("shape"),
        cpus=st.integers(1, 16),
        memory_gb=st.integers(1, 64).map(float),
        gpus=st.integers(0, 2),
    )
    requests = draw(st.lists(shapes, min_size=0, max_size=8))
    return model, node, [Pod(f"p{i}", request) for i, request in enumerate(requests)]


class _CrowdPenalty(InterferenceModel):
    """A third-party model implementing only ``node_speeds``: every resident
    loses 10% per co-resident."""

    def node_speeds(self, node, pods):
        return [1.0 / (1.0 + 0.1 * (len(pods) - 1))] * len(pods)


def _noisy_workload(name="noisy"):
    return LinearRuntimeWorkload(
        feature_ranges={"x": (0.0, 1.0)},
        coefficients={
            "small": ({"x": 5.0}, 20.0),
            "big": ({"x": 3.0}, 12.0),
        },
        noise_sigma=2.0,
        name=name,
    )


class TestInterferenceModels:
    def _pod(self, hw="small", name="p"):
        return Pod(name, _CATALOG[hw])

    def test_solo_pod_runs_at_full_speed_in_every_model(self):
        node = Node("n", cpus=8, memory_gb=32)
        for model in (NoInterference(), LinearSlowdown(0.7), CapacityContention(0.5)):
            assert model.node_speeds(node, [self._pod()])[0] == 1.0

    def test_no_interference_ignores_neighbours(self):
        node = Node("n", cpus=8, memory_gb=32)
        others = [self._pod("big", "q"), self._pod("big", "r")]
        assert NoInterference().node_speeds(node, [self._pod(), *others])[0] == 1.0

    def test_linear_slowdown_scales_with_co_resident_utilisation(self):
        node = Node("n", cpus=8, memory_gb=32)
        one = [self._pod("small", "q")]  # 2/8 cpus = 0.25
        two = [self._pod("small", "q"), self._pod("big", "r")]  # 6/8 = 0.75
        model = LinearSlowdown(alpha=1.0)
        with_one = model.node_speeds(node, [self._pod(), *one])[0]
        with_two = model.node_speeds(node, [self._pod(), *two])[0]
        assert with_one == pytest.approx(1 / 1.25)
        assert with_two == pytest.approx(1 / 1.75)
        assert with_two < with_one

    def test_linear_slowdown_uses_bottleneck_dimension(self):
        # Memory is the contended resource here: 24/32 GiB vs 4/16 CPUs.
        node = Node("n", cpus=16, memory_gb=32)
        hog = Pod("q", HardwareConfig("memhog", cpus=4, memory_gb=24))
        expected = 1 / (1 + 0.5 * (24 / 32))
        assert LinearSlowdown(0.5).node_speeds(node, [self._pod(), hog])[0] == pytest.approx(
            expected
        )

    def test_capacity_contention_throttles_past_usable_fraction(self):
        node = Node("n", cpus=8, memory_gb=64)
        model = CapacityContention(cpu_fraction=0.5)  # 4 usable CPUs shared
        others = [self._pod("big", "q")]  # total 2 + 4 = 6 > 4
        assert model.node_speeds(node, [self._pod(), *others])[0] == pytest.approx(4 / 6)

    def test_capacity_contention_below_threshold_is_free(self):
        node = Node("n", cpus=8, memory_gb=64)
        model = CapacityContention(cpu_fraction=0.75)  # 6 usable CPUs
        others = [self._pod("small", "q")]  # total 4 <= 6
        assert model.node_speeds(node, [self._pod(), *others])[0] == 1.0

    @pytest.mark.parametrize(
        "model",
        [
            NoInterference(),
            LinearSlowdown(alpha=0.7),
            LinearSlowdown(alpha=0.7, class_weights={"io-noisy": 2.5}),
            CapacityContention(cpu_fraction=0.6, memory_fraction=0.8),
        ],
        ids=["none", "linear", "linear-weighted", "capacity"],
    )
    def test_node_speeds_matches_the_docstring_formulas(self, model):
        """Each built-in ``node_speeds`` equals its docstring formula written
        out per pod, bit for bit, from an empty node to a crowded one with
        every resource dimension contended."""
        node = Node("n", cpus=16, memory_gb=64, gpus=2, interference_class="io-noisy")
        shapes = [
            HardwareConfig("a", cpus=1, memory_gb=4),
            HardwareConfig("b", cpus=4, memory_gb=8, gpus=1),
            HardwareConfig("c", cpus=2, memory_gb=16),
        ]
        pods = [Pod(f"p{i}", shapes[i % len(shapes)]) for i in range(6)]
        for k in range(len(pods) + 1):
            residents = pods[:k]
            assert _bits(model.node_speeds(node, residents)) == _bits(
                _oracle_speeds(model, node, residents)
            )

    def test_node_speeds_is_the_only_abstract_method(self):
        assert InterferenceModel.__abstractmethods__ == frozenset({"node_speeds"})
        with pytest.raises(TypeError):
            type("Incomplete", (InterferenceModel,), {})()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"class_weights": {"io-noisy": float("nan")}},
            {"class_weights": {"io-noisy": float("inf")}},
        ],
        ids=["alpha-nan", "alpha-inf", "weight-nan", "weight-inf"],
    )
    def test_linear_slowdown_rejects_non_finite_parameters(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            LinearSlowdown(**kwargs)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LinearSlowdown(alpha=-0.1)
        with pytest.raises(ValueError):
            CapacityContention(cpu_fraction=0.0)
        with pytest.raises(ValueError):
            CapacityContention(memory_fraction=1.5)

    def test_simulator_rejects_out_of_range_speed(self):
        class Bogus(NoInterference):
            def node_speeds(self, node, pods):
                return [2.0 if len(pods) > 1 else 1.0] * len(pods)

        sim = _cluster(interference=Bogus())
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        with pytest.raises(ValueError, match="rates must be in"):
            sim.run_until_idle()

    def test_simulator_rejects_slowed_solo_pod(self):
        class Sluggish(NoInterference):
            def node_speeds(self, node, pods):
                return [0.5] * len(pods)

        sim = _cluster(interference=Sluggish())
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        with pytest.raises(ValueError, match="solo pods"):
            sim.run_until_idle()

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_simulator_rejects_a_rate_count_unlike_the_resident_count(self, extra):
        class Miscounted(NoInterference):
            def node_speeds(self, node, pods):
                return [1.0] * (len(pods) + extra)

        sim = _cluster(interference=Miscounted())
        pod = sim.submit({"x": 0.0}, "small", at_time=0.0)
        match = rf"Miscounted returned {1 + extra} progress rates for the 1 pods on node 'n'"
        with pytest.raises(ValueError, match=match):
            sim.run_until_idle()
        # Rejected before any resident's rate or progress changed.
        assert pod.speed is None
        assert pod.progress_log == []


class TestNodeSpeedsProperty:
    """Every built-in model, on generated nodes and resident sets, answers
    its docstring formula bit for bit, in (0, 1], and 1.0 for a lone pod."""

    @settings(max_examples=200, deadline=None)
    @given(_node_speeds_cases())
    def test_rates_match_the_oracle_in_range_and_exact_alone(self, case):
        model, node, pods = case
        speeds = model.node_speeds(node, pods)
        assert _bits(speeds) == _bits(_oracle_speeds(model, node, pods))
        assert all(0.0 < s <= 1.0 for s in speeds)
        if pods:
            assert model.node_speeds(node, pods[:1]) == [1.0]


def _run_of(runs, pod):
    """The completed run of one submitted pod."""
    (run,) = [run for run in runs if run.pod_name == pod.name]
    return run


class TestThirdPartyModel:
    """A model outside the library implements ``node_speeds`` alone."""

    def test_it_drives_the_simulator(self):
        sim = _cluster(interference=_CrowdPenalty())
        a = sim.submit({"x": 0.0}, "small", at_time=0.0)
        b = sim.submit({"x": 0.0}, "small", at_time=0.0)
        runs = sim.run_until_idle()
        # Both 10 s pods share the node at 1/1.1 throughout.
        for pod in (a, b):
            assert pod.finish_time == pytest.approx(11.0)
            assert _run_of(runs, pod).slowdown == pytest.approx(1.1)

    def test_least_slowdown_picks_the_quieter_node(self):
        busy = Node("busy", cpus=8, memory_gb=32)
        quiet = Node("quiet", cpus=8, memory_gb=32)
        resident = Pod("resident", _CATALOG["small"])
        context = PlacementContext(interference=_CrowdPenalty(), running={"busy": [resident]})
        pod = Pod("p", _CATALOG["small"])
        assert LeastSlowdown().select(pod, [busy, quiet], context) is quiet
        # Without co-residents anywhere the choice falls back to cluster order.
        empty = PlacementContext(interference=_CrowdPenalty())
        assert LeastSlowdown().select(pod, [busy, quiet], empty) is busy


class TestProgressExecution:
    def test_no_interference_observed_equals_planned_bit_for_bit(self):
        sim = _cluster(workload=_noisy_workload())
        for x in (0.1, 0.5, 0.9):
            sim.submit({"x": x}, "small", at_time=0.0)
        runs = sim.run_until_idle()
        for run in runs:
            assert run.record.runtime_seconds == run.planned_runtime_seconds
            assert run.slowdown == 1.0

    def test_two_co_resident_pods_slow_each_other_down(self):
        # Two 10s pods sharing the node under alpha=1: each runs at
        # 1/(1+0.25) while the other is present.
        sim = _cluster(interference=LinearSlowdown(alpha=1.0))
        a = sim.submit({"x": 0.0}, "small", at_time=0.0)
        b = sim.submit({"x": 0.0}, "small", at_time=0.0)
        runs = sim.run_until_idle()
        assert len(runs) == 2
        # Both progress at 0.8 until the first finishes at t=12.5; the
        # survivor then needs no further slowdown.  First: 10/0.8 = 12.5.
        first, second = sorted(runs, key=lambda r: r.finish_time)
        assert first.finish_time == pytest.approx(12.5)
        assert first.record.runtime_seconds == pytest.approx(12.5)
        # Second: progressed 10 work-seconds' worth at 0.8 over 12.5s, so
        # remaining 0 work... identical pods tie; both finish at 12.5.
        assert second.finish_time == pytest.approx(12.5)
        assert _run_of(runs, a).slowdown == pytest.approx(1.25)
        assert _run_of(runs, b).slowdown == pytest.approx(1.25)

    def test_departure_speeds_up_the_survivor(self):
        # A 5s pod and a 20s pod co-reside under alpha=1 (u=0.25 -> 0.8).
        sim = _cluster(
            runtimes={"small": 5.0, "big": 20.0},
            interference=LinearSlowdown(alpha=1.0),
        )
        short = sim.submit({"x": 0.0}, "small", at_time=0.0)
        long = sim.submit({"x": 0.0}, "big", at_time=0.0)
        runs = sim.run_until_idle()
        # short: 5 work at 1/(1+4/8)=2/3 -> finishes at 7.5.
        assert short.finish_time == pytest.approx(7.5)
        # long: at t=7.5 progressed 7.5 * (1/(1+2/8)) = 6 of 20; the
        # remaining 14 run at full speed -> finishes at 21.5.
        assert long.finish_time == pytest.approx(21.5)
        assert long.observed_runtime_seconds == pytest.approx(21.5)
        assert _run_of(runs, long).slowdown == pytest.approx(21.5 / 20.0)

    def test_arrival_slows_down_a_running_pod(self):
        sim = _cluster(
            runtimes={"small": 10.0, "big": 30.0},
            interference=LinearSlowdown(alpha=2.0),
        )
        early = sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.submit({"x": 0.0}, "small", at_time=5.0)
        runs = sim.run_until_idle()
        # early ran alone for 5s (5 work done), then at 1/(1+2*0.25)=2/3:
        # remaining 5 work takes 7.5s -> finish at 12.5.
        assert early.finish_time == pytest.approx(12.5)
        assert _run_of(runs, early).slowdown == pytest.approx(1.25)

    def test_queueing_is_not_interference(self):
        # A pod waiting for capacity has zero progress and zero slowdown:
        # only co-residency inflates observed runtime.
        sim = _cluster(
            nodes=[Node("tiny", cpus=2, memory_gb=16)],
            interference=LinearSlowdown(alpha=5.0),
        )
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        waiting = sim.submit({"x": 0.0}, "small", at_time=0.0)
        runs = sim.run_until_idle()
        assert waiting.queue_seconds == pytest.approx(10.0)
        assert _run_of(runs, waiting).slowdown == pytest.approx(1.0)  # it always ran alone

    def test_completed_run_slowdown_property(self):
        sim = _cluster(interference=LinearSlowdown(alpha=1.0))
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        sim.submit({"x": 0.0}, "small", at_time=0.0)
        runs = sim.run_until_idle()
        for run in runs:
            assert run.slowdown == pytest.approx(
                run.record.runtime_seconds / run.planned_runtime_seconds
            )
            assert run.slowdown > 1.0


class TestDrawAtSubmitDeterminism:
    """Regression: the ground-truth draw must not depend on scheduling order."""

    def _submissions(self, sim, priorities):
        pods = []
        for i, priority in enumerate(priorities):
            pods.append(
                sim.submit({"x": 0.3 + 0.1 * i}, "big", at_time=float(i), priority=priority)
            )
        sim.run_until_idle()
        return pods

    def test_planned_runtimes_identical_across_schedulers(self):
        # Same submission order, different service order (FIFO vs priority
        # with preemption): the draws must be identical pod for pod.
        fifo = _cluster(workload=_noisy_workload(), scheduler=FIFOScheduler(),
                        nodes=[Node("n", cpus=4, memory_gb=32)])
        prio = _cluster(workload=_noisy_workload(), scheduler=PriorityScheduler(),
                        nodes=[Node("n", cpus=4, memory_gb=32)])
        priorities = [0, 5, 10, 0, 7]
        fifo_pods = self._submissions(fifo, priorities)
        prio_pods = self._submissions(prio, priorities)
        assert [p.work_seconds for p in fifo_pods] == [p.work_seconds for p in prio_pods]

    def test_preempted_pod_does_not_redraw(self):
        # The preempted pod restarts with the SAME drawn runtime, and later
        # pods' draws are unaffected by the restart.
        sim = _cluster(workload=_noisy_workload(),
                       scheduler=PriorityScheduler(),
                       nodes=[Node("n", cpus=4, memory_gb=32)])
        low = sim.submit({"x": 0.5}, "big", at_time=0.0, priority=0)
        drawn = low.work_seconds
        sim.submit({"x": 0.5}, "big", at_time=2.0, priority=10)
        runs = sim.run_until_idle()
        assert low.preemptions == 1
        assert low.work_seconds == drawn
        (run,) = [r for r in runs if r.pod_name == low.name]
        assert run.record.runtime_seconds == drawn  # NoInterference: observed == draw
        assert run.planned_runtime_seconds == drawn


class TestWorkConservation:
    """Property: the integral of the progress rate over the completed
    attempt equals the drawn work, across preemption and autoscale
    boundaries."""

    def _integral(self, pod):
        # progress_log holds (time, speed) changepoints of the final
        # attempt; integrate the piecewise-constant rate to finish_time.
        points = list(pod.progress_log) + [(pod.finish_time, 0.0)]
        total = 0.0
        for (t0, s0), (t1, _) in zip(points, points[1:]):
            total += (t1 - t0) * s0
        return total

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "interference", [NoInterference(), LinearSlowdown(1.3), CapacityContention(0.6)]
    )
    def test_completed_progress_integrates_to_drawn_work(self, seed, interference):
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (0.0, 1.0)},
            coefficients={"small": ({"x": 8.0}, 15.0), "big": ({"x": 4.0}, 9.0)},
            noise_sigma=1.5,
            name="prop",
        )
        sim = ClusterSimulator(
            workload=workload,
            catalog=_CATALOG,
            nodes=[Node("base", cpus=4, memory_gb=16)],
            scheduler=PriorityScheduler(),
            seed=seed,
            autoscaler=AutoscalingNodePool(
                node_cpus=4,
                node_memory_gb=16,
                max_nodes=2,
                provision_delay_seconds=12.0,
                scale_down_idle_seconds=40.0,
            ),
            interference=interference,
        )
        import numpy as np

        rng = np.random.default_rng(seed)
        pods = []
        for i in range(14):
            hw = "big" if rng.random() < 0.4 else "small"
            pods.append(
                sim.submit(
                    {"x": float(rng.random())},
                    hw,
                    at_time=float(i * 3),
                    priority=int(rng.integers(0, 3)) * 5,
                )
            )
        runs = sim.run_until_idle()
        assert len(runs) == len(pods)
        for pod in pods:
            assert pod.phase is PodPhase.SUCCEEDED
            assert self._integral(pod) == pytest.approx(pod.work_seconds, rel=1e-9)
            assert pod.observed_runtime_seconds >= pod.work_seconds - 1e-9
            # Observed wall time spans the final attempt exactly.
            assert pod.observed_runtime_seconds == pytest.approx(
                pod.finish_time - pod.start_time, abs=1e-6
            )

    def test_preempted_and_restarted_pod_conserves_work_with_changing_co_residents(self):
        """Directed preemption x interference case: the victim's final
        attempt runs amid *different* co-residents than its first attempt,
        and its progress integral must still equal the drawn work."""
        sim = ClusterSimulator(
            workload=_constant_workload({"small": 30.0, "big": 30.0}),
            catalog=_CATALOG,
            nodes=[Node("n", cpus=6, memory_gb=32)],
            scheduler=PriorityScheduler(),
            seed=0,
            interference=LinearSlowdown(1.3),
        )
        victim = sim.submit({"x": 0.0}, "big", at_time=0.0, priority=0)
        # A small low-priority neighbour shares the first attempt...
        neighbour = sim.submit({"x": 0.0}, "small", at_time=0.0, priority=0)
        # ...then a high-priority big request evicts the victim mid-run.
        preemptor = sim.submit({"x": 0.0}, "big", at_time=10.0, priority=10)
        runs = sim.run_until_idle()
        assert len(runs) == 3
        assert victim.preemptions == 1
        # The restart shared the node with a different mix (the preemptor
        # finishes at a different time than the original neighbour), so the
        # final attempt's rate changepoints differ from the first attempt's.
        assert len(victim.progress_log) >= 2
        # Work conservation across the restart: integrate the final
        # attempt's piecewise-constant rate.
        points = list(victim.progress_log) + [(victim.finish_time, 0.0)]
        integral = sum((t1 - t0) * s for (t0, s), (t1, _) in zip(points, points[1:]))
        assert integral == pytest.approx(victim.work_seconds, rel=1e-9)
        assert victim.observed_runtime_seconds == pytest.approx(
            victim.finish_time - victim.start_time, abs=1e-9
        )
        # The discarded first attempt is charged as waste, not progress.
        assert victim.wasted_runtime_seconds > 0.0
        (victim_run,) = [r for r in runs if r.pod_name == victim.name]
        assert victim_run.preemptions == 1
        assert victim_run.planned_runtime_seconds == victim.work_seconds
        assert victim_run.record.runtime_seconds >= victim.work_seconds - 1e-9
