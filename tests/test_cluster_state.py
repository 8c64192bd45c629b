"""The simulator kernel: parity pins, plain pod/node objects, re-integration.

Every registered scenario must reproduce the pinned engine bit for bit,
whatever shape the kernel's bookkeeping takes.  This suite pins:

* the seed-0 summary of every scenario in ``CONTENTION_SCENARIOS``, run
  under its scheduler's own default placement, equals the FirstFit summary
  pinned in ``benchmarks/frontier_parity_reference.json`` exactly (the one
  golden file; see its capture script for the regeneration rule);
* the incrementally maintained co-residency map / cached placement context
  makes the same placement decisions as a context rebuilt from scratch on
  every call;
* re-integration edge cases: zero-work pods, simultaneous topology changes
  at one timestamp, and long-horizon work conservation (the piecewise
  progress-rate integral of ``pod.progress_log`` recovers ``work_seconds``)
  across interference models and seeds;
* pods and nodes are plain objects: runtime fields are ordinary
  attributes, a checkpoint-free restart resets progress, and node totals
  and resident order follow allocate/release.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import constant_workload, integrated_work
from repro.cluster import (
    CapacityContention,
    ClusterSimulator,
    FIFOScheduler,
    LeastSlowdown,
    LinearSlowdown,
    Node,
    NoInterference,
    PlacementContext,
    Pod,
    PodPhase,
)
from repro.evaluation.contention import (
    CONTENTION_SCENARIOS,
    build_scenario,
    run_scenario,
)
from repro.hardware import HardwareCatalog, HardwareConfig
from repro.workloads import LinearRuntimeWorkload

REFERENCE_PATH = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "frontier_parity_reference.json"
)


# ---------------------------------------------------------------------- #
# Kernel parity pins
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def parity_reference():
    """Seed-0 FirstFit summary of every pinned scenario, keyed by name."""
    with open(REFERENCE_PATH) as handle:
        reference = json.load(handle)
    assert reference["seed"] == 0
    return {
        name: pins["first-fit"]["summary"]
        for name, pins in reference["scenarios"].items()
    }


@pytest.mark.parametrize("name", sorted(CONTENTION_SCENARIOS))
def test_scenario_pinned_to_pre_refactor_reference(name, parity_reference):
    """Every registered scenario reproduces the pre-refactor engine exactly.

    Every scheduler's default placement is FirstFit, so the scenario run
    without a placement override must match the pinned FirstFit summary;
    equality here is ``==`` on every float, not approx -- the kernel's
    batched math must be bit-identical.
    """
    summary = run_scenario(build_scenario(name, seed=0)).summary()
    reference = parity_reference[name]
    assert set(summary) == set(reference)
    drifted = {
        key: (summary[key], reference[key])
        for key in reference
        if summary[key] != reference[key]
    }
    assert not drifted, f"scenario {name!r} drifted from the pre-refactor engine: {drifted}"


def test_parity_reference_covers_every_registered_scenario(parity_reference):
    """New scenarios must be captured into the reference (capture rule:
    capture with the parent commit's engine *before* touching the kernel)."""
    assert set(parity_reference) == set(CONTENTION_SCENARIOS)


# ---------------------------------------------------------------------- #
# Incremental co-residency / cached placement context
# ---------------------------------------------------------------------- #
def _interference_cluster(seed=0):
    catalog = HardwareCatalog(
        [
            HardwareConfig("small", cpus=2, memory_gb=8),
            HardwareConfig("large", cpus=4, memory_gb=16),
        ]
    )
    workload = LinearRuntimeWorkload(
        feature_ranges={"size": (1.0, 8.0)},
        coefficients={
            "small": ({"size": 60.0}, 30.0),
            "large": ({"size": 30.0}, 15.0),
        },
        noise_sigma=0.25,
        name="ctx",
    )
    nodes = [
        Node("n1", cpus=8, memory_gb=32),
        Node("n2", cpus=8, memory_gb=32),
        Node("n3", cpus=8, memory_gb=32),
    ]
    return ClusterSimulator(
        workload,
        catalog,
        nodes=nodes,
        scheduler=FIFOScheduler(placement=LeastSlowdown()),
        seed=seed,
        interference=LinearSlowdown(alpha=0.7),
    )


def _submit_stream(sim, n=24):
    for i in range(n):
        sim.submit(
            {"size": 1.0 + (i % 5)},
            "large" if i % 3 == 0 else "small",
            at_time=float(i) * 7.0,
        )


class TestIncrementalPlacementContext:
    def test_cached_context_matches_rebuilt_context(self):
        """The cached live-view context places identically to a from-scratch one.

        The reference simulator monkeypatches ``_placement_context`` to
        rebuild a fresh snapshot (copied resident lists) on every call --
        the pre-incremental behaviour.  Assignments, runtimes and finish
        times must be identical.
        """
        cached = _interference_cluster()
        rebuilt = _interference_cluster()

        def fresh_context():
            if not rebuilt.scheduler.placement.needs_context:
                return None
            return PlacementContext(
                interference=rebuilt.interference,
                running={name: list(pods) for name, pods in rebuilt._running.items()},
            )

        rebuilt._placement_context = fresh_context

        _submit_stream(cached)
        _submit_stream(rebuilt)
        runs_cached = cached.run_until_idle()
        runs_rebuilt = rebuilt.run_until_idle()

        def trace(runs):
            return [
                (r.pod_name, r.node, r.record.runtime_seconds, r.finish_time)
                for r in runs
            ]

        assert trace(runs_cached) == trace(runs_rebuilt)

    def test_running_map_tracks_allocations_mid_run(self):
        """The incremental co-residency map agrees with the allocation dicts
        at every step of a contended run (not just at idle)."""
        sim = _interference_cluster()
        _submit_stream(sim, n=18)
        checked = 0
        while sim.has_work:
            next_time = sim.peek_next_event_time()
            sim.run_until(next_time)
            by_node = sim._running_pods_by_node()
            assert set(by_node) == {node.name for node in sim.nodes}
            for node in sim.nodes:
                names = [pod.name for pod in by_node[node.name]]
                assert names == node.resident_pods
                for pod in by_node[node.name]:
                    assert pod.phase is PodPhase.RUNNING
                    assert pod.node == node.name
            checked += 1
        assert checked > 5  # the stream genuinely stepped through events

    def test_running_map_returns_fresh_lists(self):
        sim = _interference_cluster()
        _submit_stream(sim, n=4)
        sim.run_until(sim.peek_next_event_time())
        by_node = sim._running_pods_by_node()
        for pods in by_node.values():
            pods.clear()  # caller-owned copies: mutating must not corrupt the map
        assert sim.run_until_idle()  # still drains cleanly


# ---------------------------------------------------------------------- #
# Re-integration edge cases
# ---------------------------------------------------------------------- #
def _single_node_sim(workload, runtime_name="small", cpus=8, memory_gb=32, **kwargs):
    catalog = HardwareCatalog([HardwareConfig(runtime_name, cpus=2, memory_gb=8)])
    return ClusterSimulator(
        workload,
        catalog,
        nodes=[Node("solo", cpus=cpus, memory_gb=memory_gb)],
        seed=0,
        **kwargs,
    )


class TestReintegrationEdgeCases:
    def test_zero_work_pods_complete_immediately(self):
        workload = constant_workload({"small": 0.0})
        sim = _single_node_sim(workload, interference=LinearSlowdown(alpha=0.5))
        pods = [sim.submit({"x": 0.0}, "small", at_time=float(i % 2)) for i in range(6)]
        pods = {pod.name: pod for pod in pods}
        runs = sim.run_until_idle()
        assert len(runs) == 6
        for run in runs:
            assert run.record.runtime_seconds == 0.0
            assert run.planned_runtime_seconds == 0.0
            pod = pods[run.pod_name]
            assert pod.phase is PodPhase.SUCCEEDED
            assert pod.finish_time == pod.start_time
            assert pod.observed_runtime_seconds == 0.0

    def test_simultaneous_finishes_and_starts_at_one_timestamp(self):
        """A batch finishing at one instant frees capacity for the next batch
        at that same instant: multiple topology changes per timestamp."""
        workload = constant_workload({"small": 100.0})
        sim = _single_node_sim(workload, interference=LinearSlowdown(alpha=0.5))
        # The node fits 4 of the 2-cpu requests: 8 pods -> two waves of 4.
        pods = [sim.submit({"x": 0.0}, "small", at_time=0.0) for _ in range(8)]
        pods = {pod.name: pod for pod in pods}
        runs = sim.run_until_idle()
        assert len(runs) == 8
        finish_times = sorted({run.finish_time for run in runs})
        assert len(finish_times) == 2  # each wave finishes together
        first_wave = [r for r in runs if r.finish_time == finish_times[0]]
        second_wave = [r for r in runs if r.finish_time == finish_times[1]]
        assert len(first_wave) == len(second_wave) == 4
        # Identical work under identical co-residency: both waves observe the
        # same slowed runtime, and the second wave starts exactly when the
        # first finishes.
        observed = {r.record.runtime_seconds for r in runs}
        assert len(observed) == 1
        assert all(r.slowdown > 1.0 for r in runs)
        for run in second_wave:
            assert pods[run.pod_name].start_time == finish_times[0]

    @pytest.mark.parametrize(
        "model",
        [
            NoInterference(),
            LinearSlowdown(alpha=0.5),
            LinearSlowdown(alpha=1.5),
            CapacityContention(cpu_fraction=0.6),
        ],
        ids=["none", "linear", "linear-steep", "capacity"],
    )
    @pytest.mark.parametrize("seed", [0, 7])
    def test_long_horizon_work_conservation(self, model, seed):
        """Integrating each pod's logged piecewise rate recovers its drawn work.

        A long staggered stream forces many re-integrations per pod (every
        neighbour arrival/departure changes the rate); float error must not
        accumulate beyond a relative 1e-9 over the whole horizon.
        """
        workload = LinearRuntimeWorkload(
            feature_ranges={"size": (1.0, 8.0)},
            coefficients={"small": ({"size": 40.0}, 20.0)},
            noise_sigma=0.5,
            name="conserve",
        )
        catalog = HardwareCatalog([HardwareConfig("small", cpus=2, memory_gb=8)])
        sim = ClusterSimulator(
            workload,
            catalog,
            nodes=[Node("a", cpus=8, memory_gb=32), Node("b", cpus=8, memory_gb=32)],
            seed=seed,
            interference=model,
        )
        pods = [
            sim.submit({"size": 1.0 + (i % 7)}, "small", at_time=float(i) * 3.0)
            for i in range(60)
        ]
        pods = {pod.name: pod for pod in pods}
        runs = sim.run_until_idle()
        assert len(runs) == 60
        rate_changes = 0
        for run in runs:
            pod = pods[run.pod_name]
            rate_changes += len(pod.progress_log)
            integral = integrated_work(pod)
            assert integral == pytest.approx(pod.work_seconds, rel=1e-9, abs=1e-9)
            assert pod.progress_seconds == pod.work_seconds
        if not isinstance(model, NoInterference):
            # The horizon genuinely exercised re-integration: far more rate
            # changepoints than pods.
            assert rate_changes > 120
        else:
            # Without interference observed == planned bit for bit, and no
            # pod's rate ever changes after start.
            assert rate_changes == 60
            for run in runs:
                assert run.record.runtime_seconds == run.planned_runtime_seconds


# ---------------------------------------------------------------------- #
# Plain pod and node objects
# ---------------------------------------------------------------------- #
def _config(name="hw", cpus=2, memory_gb=8.0, gpus=0):
    return HardwareConfig(name, cpus=cpus, memory_gb=memory_gb, gpus=gpus)


class TestPlainObjects:
    def test_pod_runtime_fields_are_plain_attributes(self):
        pod = Pod("standalone", request=_config())
        assert pod.speed is None and pod.work_seconds is None
        assert pod._finish_at is None and pod._remaining == 0.0
        pod.work_seconds = 12.5
        pod.progress_seconds = 3.0
        pod.speed = 0.5
        assert (pod.work_seconds, pod.progress_seconds, pod.speed) == (12.5, 3.0, 0.5)
        assert {"work_seconds", "progress_seconds", "speed"} <= set(vars(pod))
        pod.speed = None
        assert pod.speed is None

    def test_pod_phase_node_and_progress_track_lifecycle(self):
        """A checkpoint-free restart resets the attempt's progress."""
        node = Node("n", cpus=4, memory_gb=16)
        pod = Pod("phased", request=_config())
        pod.work_seconds = 1.0
        pod.mark_submitted(0.0)
        assert (pod.phase, pod.node) == (PodPhase.PENDING, None)
        node.allocate(pod.name, pod.request)
        pod.mark_running(1.0, node.name)
        assert (pod.phase, pod.node) == (PodPhase.RUNNING, "n")
        assert node.resident_pods == [pod.name]
        pod.progress_seconds = 0.5
        pod.speed = 0.75
        node.release(pod.name)
        pod.mark_preempted(2.0)
        assert (pod.phase, pod.node) == (PodPhase.PENDING, None)
        assert pod.progress_seconds == 0.0  # checkpoint-free restart
        assert pod.speed is None and pod.progress_log == []
        assert node.resident_pods == []
        node.allocate(pod.name, pod.request)
        pod.mark_running(3.0, node.name)
        node.release(pod.name)
        pod.mark_finished(4.0)
        assert (pod.phase, pod.node) == (PodPhase.SUCCEEDED, "n")
        assert pod.preemptions == 1

    def test_node_totals_and_resident_order_follow_allocations(self):
        node = Node("n", cpus=8, memory_gb=32, gpus=2)
        pods = [Pod(f"p{i}", request=_config(cpus=2, memory_gb=8.0, gpus=1)) for i in range(2)]
        for pod in pods:
            node.allocate(pod.name, pod.request)
        assert node.allocated_cpus == sum(r.cpus for r in node.allocations.values()) == 4
        assert node.free_gpus == 0 and node.free_memory_gb == 16.0
        # Residents are listed in allocation order.
        assert node.resident_pods == ["p0", "p1"]
        node.release("p0")
        assert node.resident_pods == ["p1"]
        assert node.free_cpus == 6
        node.allocate("p0", pods[0].request)
        assert node.resident_pods == ["p1", "p0"]
