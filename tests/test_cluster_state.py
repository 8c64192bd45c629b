"""The array kernel: parity pins, facade contract and re-integration edge cases.

The structure-of-arrays refactor (:mod:`repro.cluster.state`) promised two
things: the flat arrays are *invisible* through the public ``Pod``/``Node``
facades, and every registered scenario reproduces the pre-refactor engine
bit for bit.  This suite pins both:

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
* the facade contract: bound pods mirror the arrays both ways, bound nodes
  keep the resident index lists, unbound ones behave as plain objects.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import constant_workload
from repro.cluster import (
    CapacityContention,
    ClusterSimulator,
    ClusterState,
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


def _integrated_work(pod):
    """Integrate the attempt's piecewise-constant progress rate to the finish."""
    log = pod.progress_log
    assert log, f"pod {pod.name} finished without a progress log"
    total = 0.0
    for (t0, s0), (t1, _) in zip(log, log[1:]):
        total += (t1 - t0) * s0
    t_last, s_last = log[-1]
    total += (pod.finish_time - t_last) * s_last
    return total


class TestReintegrationEdgeCases:
    def test_zero_work_pods_complete_immediately(self):
        workload = constant_workload({"small": 0.0})
        sim = _single_node_sim(workload, interference=LinearSlowdown(alpha=0.5))
        for i in range(6):
            sim.submit({"x": 0.0}, "small", at_time=float(i % 2))
        runs = sim.run_until_idle()
        assert len(runs) == 6
        for run in runs:
            assert run.record.runtime_seconds == 0.0
            assert run.planned_runtime_seconds == 0.0
            pod = sim.pods[run.pod_name]
            assert pod.phase is PodPhase.SUCCEEDED
            assert pod.finish_time == pod.start_time
            assert pod.observed_runtime_seconds == 0.0

    def test_simultaneous_finishes_and_starts_at_one_timestamp(self):
        """A batch finishing at one instant frees capacity for the next batch
        at that same instant: multiple topology changes per timestamp."""
        workload = constant_workload({"small": 100.0})
        sim = _single_node_sim(workload, interference=LinearSlowdown(alpha=0.5))
        # The node fits 4 of the 2-cpu requests: 8 pods -> two waves of 4.
        for _ in range(8):
            sim.submit({"x": 0.0}, "small", at_time=0.0)
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
            assert sim.pods[run.pod_name].start_time == finish_times[0]

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
        for i in range(60):
            sim.submit({"size": 1.0 + (i % 7)}, "small", at_time=float(i) * 3.0)
        runs = sim.run_until_idle()
        assert len(runs) == 60
        rate_changes = 0
        for run in runs:
            pod = sim.pods[run.pod_name]
            rate_changes += len(pod.progress_log)
            integral = _integrated_work(pod)
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
# Facade contract
# ---------------------------------------------------------------------- #
def _config(name="hw", cpus=2, memory_gb=8.0, gpus=0):
    return HardwareConfig(name, cpus=cpus, memory_gb=memory_gb, gpus=gpus)


class TestFacadeContract:
    def test_unbound_pod_keeps_plain_attribute_behaviour(self):
        pod = Pod("standalone", request=_config())
        assert pod._state is None
        assert pod.speed is None and pod.work_seconds is None
        pod.work_seconds = 12.5
        pod.progress_seconds = 3.0
        pod.speed = 0.5
        assert (pod.work_seconds, pod.progress_seconds, pod.speed) == (12.5, 3.0, 0.5)
        pod.speed = None
        assert pod.speed is None

    def test_adopted_pod_mirrors_state_arrays_both_ways(self):
        state = ClusterState()
        pod = Pod("bound", request=_config(cpus=3, memory_gb=24.0, gpus=1))
        pod.work_seconds = 7.0
        index = state.adopt_pod(pod)
        # Adoption snapshots the facade's values...
        assert state.work[index] == 7.0
        assert state.req_cpus[index] == 3
        assert state.req_mem[index] == 24.0
        assert state.req_gpus[index] == 1
        assert np.isnan(state.speed[index])
        # ...then property writes land in the arrays...
        pod.progress_seconds = 3.25
        pod.speed = 0.5
        assert state.progress[index] == 3.25
        assert state.speed[index] == 0.5
        # ...array writes are visible through the facade...
        state.progress[index] = 4.0
        assert pod.progress_seconds == 4.0
        # ...and None round-trips through NaN.
        pod.speed = None
        assert np.isnan(state.speed[index])
        assert pod.speed is None

    def test_adopted_pod_phase_and_node_track_lifecycle(self):
        """Phase and node are plain facade attributes; the kernel's only
        record of placement is the node's resident index list."""
        state = ClusterState()
        node = Node("n", cpus=4, memory_gb=16)
        slot = state.adopt_node(node)
        pod = Pod("phased", request=_config())
        pod.work_seconds = 1.0
        index = state.adopt_pod(pod)
        pod.mark_submitted(0.0)
        assert (pod.phase, pod.node) == (PodPhase.PENDING, None)
        node.allocate(pod.name, pod.request)
        pod.mark_running(1.0, node.name)
        assert (pod.phase, pod.node) == (PodPhase.RUNNING, "n")
        assert list(state.residents[slot]) == [index]
        pod.progress_seconds = 0.5
        node.release(pod.name)
        pod.mark_preempted(2.0)
        assert (pod.phase, pod.node) == (PodPhase.PENDING, None)
        assert state.progress[index] == 0.0  # checkpoint-free restart
        assert list(state.residents[slot]) == []
        node.allocate(pod.name, pod.request)
        pod.mark_running(3.0, node.name)
        node.release(pod.name)
        pod.mark_finished(4.0)
        assert (pod.phase, pod.node) == (PodPhase.SUCCEEDED, "n")
        assert pod.is_terminal and pod.preemptions == 1

    def test_duplicate_adoption_rejected(self):
        state = ClusterState()
        pod = Pod("dup", request=_config())
        state.adopt_pod(pod)
        with pytest.raises(ValueError, match="already adopted"):
            state.adopt_pod(Pod("dup", request=_config()))
        node = Node("n", cpus=4, memory_gb=16)
        state.adopt_node(node)
        with pytest.raises(ValueError, match="already adopted"):
            state.adopt_node(Node("n", cpus=4, memory_gb=16))

    def test_adopted_node_totals_match_allocation_dict(self):
        state = ClusterState()
        node = Node("n", cpus=8, memory_gb=32, gpus=2)
        slot = state.adopt_node(node)
        pods = [Pod(f"p{i}", request=_config(cpus=2, memory_gb=8.0, gpus=1)) for i in range(2)]
        for pod in pods:
            state.adopt_pod(pod)
            node.allocate(pod.name, pod.request)
        assert node.allocated_cpus == sum(r.cpus for r in node.allocations.values()) == 4
        # Resident slots track allocation order.
        assert [state.pods[i].name for i in state.residents[slot]] == ["p0", "p1"]
        node.release("p0")
        assert [state.pods[i].name for i in state.residents[slot]] == ["p1"]
        assert node.free_cpus == 6

    def test_pod_array_growth_preserves_values(self):
        state = ClusterState(pod_capacity=2)
        pods = []
        for i in range(20):
            pod = Pod(f"grow-{i}", request=_config())
            pod.work_seconds = float(i)
            state.adopt_pod(pod)
            pods.append(pod)
        assert state.n_pods == 20
        for i, pod in enumerate(pods):
            assert pod.work_seconds == float(i)
            assert state.work[i] == float(i)

    def test_simulator_state_exposes_kernel(self):
        sim = _single_node_sim(constant_workload({"small": 10.0}))
        pod = sim.submit({"x": 0.0}, "small", at_time=0.0)
        assert sim.state.pod_index[pod.name] == pod._index
        sim.run_until_idle()
        assert pod.phase is PodPhase.SUCCEEDED
        assert sim.state.progress[pod._index] == pod.work_seconds == 10.0
