"""Pluggable placement policies: the node-choice axis of scheduling.

Covers the policy unit behaviour, the scheduler/policy composition, the
exact FirstFit parity against the pre-refactor FirstFit summaries pinned in
``benchmarks/frontier_parity_reference.json``, the
deterministic BestFit tie-break, heterogeneous interference classes, and
the headline acceptance result (LeastSlowdown strictly beats Pack on the
interference-heavy scenario across seeds).
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.cluster import (
    AutoscalingNodePool,
    BackfillScheduler,
    BestFit,
    ClusterSimulator,
    FIFOScheduler,
    FirstFit,
    LeastSlowdown,
    LinearSlowdown,
    NoInterference,
    Node,
    Pack,
    PlacementContext,
    PriorityScheduler,
    WorstFit,
    build_placement,
    PLACEMENT_POLICIES,
)
from repro.cluster.pod import Pod
from repro.evaluation.contention import (
    CONTENTION_SCENARIOS,
    build_scenario,
    run_scenario,
)
from repro.hardware import HardwareCatalog, HardwareConfig

from conftest import constant_workload as _constant_workload

_PARITY_PIN = json.loads(
    (
        Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "frontier_parity_reference.json"
    ).read_text()
)

_CATALOG = HardwareCatalog(
    [
        HardwareConfig("small", cpus=2, memory_gb=8),
        HardwareConfig("big", cpus=4, memory_gb=16),
    ]
)


def _pod(hw="small", name="p"):
    return Pod(name=name, request=_CATALOG[hw])


def _allocate(node, cpus, pods=0):
    """Occupy ``cpus`` of ``node`` with dummy allocations (2 CPUs each)."""
    for i in range(cpus // 2):
        node.allocate(f"filler-{node.name}-{i}", _CATALOG["small"])


# --------------------------------------------------------------------- #
class TestPlacementPolicies:
    def test_first_fit_takes_cluster_order(self):
        nodes = [Node("b", cpus=8, memory_gb=32), Node("a", cpus=8, memory_gb=32)]
        assert FirstFit().select(_pod(), nodes).name == "b"

    def test_none_when_nothing_fits(self):
        nodes = [Node("n", cpus=2, memory_gb=4)]
        for policy in (FirstFit(), BestFit(), WorstFit(), Pack(), LeastSlowdown()):
            assert policy.select(_pod("big"), nodes) is None

    def test_best_fit_takes_tightest_node(self):
        roomy = Node("roomy", cpus=16, memory_gb=64)
        tight = Node("tight", cpus=4, memory_gb=16)
        assert BestFit().select(_pod(), [roomy, tight]).name == "tight"

    def test_worst_fit_takes_emptiest_node(self):
        roomy = Node("roomy", cpus=16, memory_gb=64)
        tight = Node("tight", cpus=4, memory_gb=16)
        assert WorstFit().select(_pod(), [tight, roomy]).name == "roomy"

    def test_pack_takes_most_utilised_feasible_node(self):
        busy = Node("busy", cpus=8, memory_gb=32)
        _allocate(busy, 4)
        idle = Node("idle", cpus=8, memory_gb=32)
        assert Pack().select(_pod(), [idle, busy]).name == "busy"

    def test_pack_on_empty_cluster_matches_first_fit(self):
        nodes = [Node("n1", cpus=8, memory_gb=32), Node("n2", cpus=8, memory_gb=32)]
        assert Pack().select(_pod(), nodes).name == "n1"

    def test_least_slowdown_spreads_under_interference(self):
        busy = Node("busy", cpus=8, memory_gb=32)
        resident = _pod("big", name="resident")
        busy.allocate(resident.name, resident.request)
        idle = Node("idle", cpus=8, memory_gb=32)
        context = PlacementContext(
            interference=LinearSlowdown(alpha=1.0), running={"busy": [resident]}
        )
        assert LeastSlowdown().select(_pod(), [busy, idle], context).name == "idle"

    def test_least_slowdown_counts_co_resident_damage(self):
        # Placing next to a big resident hurts the *resident* more than
        # placing next to a small one, even if the pod's own slowdown would
        # tie: the policy sums everyone's post-placement slowdown.
        node_a = Node("a", cpus=8, memory_gb=32)
        node_b = Node("b", cpus=8, memory_gb=32)
        big = _pod("big", name="big-resident")
        small = _pod("small", name="small-resident")
        node_a.allocate(big.name, big.request)
        node_b.allocate(small.name, small.request)
        context = PlacementContext(
            interference=LinearSlowdown(alpha=1.0),
            running={"a": [big], "b": [small]},
        )
        assert LeastSlowdown().select(_pod(), [node_a, node_b], context).name == "b"

    def test_least_slowdown_without_context_degenerates_to_first_fit(self):
        nodes = [Node("n1", cpus=8, memory_gb=32), Node("n2", cpus=8, memory_gb=32)]
        assert LeastSlowdown().select(_pod(), nodes).name == "n1"

    def test_least_slowdown_under_null_model_is_first_fit_even_on_occupied_nodes(self):
        # Regression: the score is *excess* slowdown (1/speed - 1), so a
        # resident that causes no interference must not repel placement --
        # under NoInterference every node scores 0.0 and cluster order wins.
        busy = Node("busy", cpus=8, memory_gb=32)
        resident = _pod("big", name="resident")
        busy.allocate(resident.name, resident.request)
        idle = Node("idle", cpus=8, memory_gb=32)
        context = PlacementContext(
            interference=NoInterference(), running={"busy": [resident]}
        )
        assert LeastSlowdown().select(_pod(), [busy, idle], context).name == "busy"

    def test_least_slowdown_prefers_quiet_interference_class(self):
        noisy = Node("noisy", cpus=8, memory_gb=32, interference_class="io-noisy")
        quiet = Node("quiet", cpus=8, memory_gb=32, interference_class="numa-quiet")
        r1, r2 = _pod(name="r1"), _pod(name="r2")
        noisy.allocate(r1.name, r1.request)
        quiet.allocate(r2.name, r2.request)
        model = LinearSlowdown(alpha=1.0, class_weights={"io-noisy": 3.0, "numa-quiet": 0.1})
        context = PlacementContext(
            interference=model, running={"noisy": [r1], "quiet": [r2]}
        )
        assert LeastSlowdown().select(_pod(), [noisy, quiet], context).name == "quiet"

    def test_registry_and_aliases(self):
        assert set(PLACEMENT_POLICIES) == {
            "first-fit", "best-fit", "spread", "worst-fit", "pack", "least-slowdown",
        }
        assert isinstance(build_placement("spread"), WorstFit)
        assert isinstance(build_placement("worst-fit"), WorstFit)
        with pytest.raises(KeyError):
            build_placement("round-robin")

    def test_policies_are_picklable(self):
        for name in PLACEMENT_POLICIES:
            policy = build_placement(name)
            assert pickle.loads(pickle.dumps(policy)) == policy


class TestDeterministicBestFitTieBreak:
    """Equal-fit nodes must resolve on ``(leftover, node.name)`` -- never on
    cluster order -- so placement refactors cannot silently reorder them."""

    def _equal_nodes(self, *names):
        return [Node(name, cpus=8, memory_gb=32) for name in names]

    def test_equal_fit_resolves_by_name(self):
        assert BestFit().select(_pod(), self._equal_nodes("zeta", "alpha", "mid")).name == "alpha"

    def test_choice_is_independent_of_cluster_order(self):
        names = ["n-c", "n-a", "n-b"]
        import itertools

        choices = {
            BestFit().select(_pod(), self._equal_nodes(*order)).name
            for order in itertools.permutations(names)
        }
        assert choices == {"n-a"}

    def test_scheduler_inherits_the_tie_break(self):
        scheduler = BackfillScheduler(placement=BestFit())
        decision = scheduler.select_node(_pod(), self._equal_nodes("zz", "aa"))
        assert decision.node_name == "aa"
        assert decision.reason == "best-fit on remaining CPU"

    def test_leftover_still_dominates_name(self):
        tight = Node("zz-tight", cpus=4, memory_gb=16)
        roomy = Node("aa-roomy", cpus=16, memory_gb=64)
        assert BestFit().select(_pod(), [roomy, tight]).name == "zz-tight"


# --------------------------------------------------------------------- #
class TestSchedulerComposition:
    def test_default_placements(self):
        assert isinstance(FIFOScheduler().placement, FirstFit)
        assert isinstance(BackfillScheduler().placement, FirstFit)
        assert isinstance(PriorityScheduler().placement, FirstFit)

    def test_any_scheduler_composes_with_any_placement(self):
        nodes = [Node("n1", cpus=8, memory_gb=32), Node("n2", cpus=8, memory_gb=32)]
        _allocate(nodes[0], 2)
        for scheduler_cls in (FIFOScheduler, BackfillScheduler):
            scheduler = scheduler_cls(placement=WorstFit())
            assert scheduler.select_node(_pod(), nodes).node_name == "n2"
        priority = PriorityScheduler(placement=Pack())
        assert priority.select_node(_pod(), nodes).node_name == "n1"
        assert priority.supports_preemption

    def test_decision_reasons_name_the_policy(self):
        nodes = [Node("n", cpus=8, memory_gb=32)]
        fifo = FIFOScheduler()
        assert fifo.select_node(_pod(), nodes).reason == "first node with sufficient capacity"
        spread = FIFOScheduler(placement=WorstFit())
        assert "spread" in spread.select_node(_pod(), nodes).reason

    def test_simulator_runs_with_interference_aware_placement(self):
        sim = ClusterSimulator(
            workload=_constant_workload({"small": 10.0, "big": 10.0}),
            catalog=_CATALOG,
            nodes=[Node("n1", cpus=8, memory_gb=32), Node("n2", cpus=8, memory_gb=32)],
            scheduler=FIFOScheduler(placement=LeastSlowdown()),
            seed=0,
            interference=LinearSlowdown(alpha=1.0),
        )
        for i in range(4):
            sim.submit({"x": 0.0}, "small", at_time=0.0)
        runs = sim.run_until_idle()
        assert len(runs) == 4
        # Interference-aware placement spreads 2+2, so nobody shares with
        # more than one co-resident and every run is equally mildly slowed.
        assert {run.node for run in runs} == {"n1", "n2"}

    def test_feasibility_cache_composes_with_placement(self):
        sim = ClusterSimulator(
            workload=_constant_workload({"small": 10.0, "big": 10.0}),
            catalog=_CATALOG,
            nodes=[Node("n1", cpus=2, memory_gb=8), Node("n2", cpus=8, memory_gb=32)],
            scheduler=FIFOScheduler(placement=WorstFit()),
            seed=0,
        )
        # big only ever fits n2; the probe runs the actual policy on
        # pristine clones, so the cache answers from total capacity.
        assert sim.feasible_node(_CATALOG["big"]).name == "n2"
        assert sim.request_feasible(_CATALOG["big"])

    def test_autoscaler_deficit_packing_uses_the_policy(self):
        pool = AutoscalingNodePool(
            node_cpus=8,
            node_memory_gb=32,
            max_nodes=4,
            provision_delay_seconds=5.0,
            scale_down_idle_seconds=None,
        )
        for placement in (None, WorstFit(), Pack(), LeastSlowdown()):
            sim = ClusterSimulator(
                workload=_constant_workload({"small": 10.0, "big": 10.0}),
                catalog=_CATALOG,
                nodes=[Node("base", cpus=2, memory_gb=8)],
                scheduler=FIFOScheduler(placement=placement),
                seed=0,
                autoscaler=pool,
                interference=LinearSlowdown(alpha=0.5),
            )
            # base fits nothing of size big: four big pods need 2 pool
            # nodes regardless of which bin the policy picks (a bin is
            # opened only when none fits).
            for i in range(4):
                sim.submit({"x": 0.0}, "big", at_time=0.0)
            runs = sim.run_until_idle()
            assert len(runs) == 4
            requested = [e for e in sim.scale_events if e.kind == "scale_up_requested"]
            assert len(requested) == 2


# --------------------------------------------------------------------- #
class TestNodeInterferenceClass:
    def test_default_and_custom_class(self):
        assert Node("n", cpus=2, memory_gb=4).interference_class == "standard"
        node = Node("n", cpus=2, memory_gb=4, interference_class="io-noisy")
        assert node.interference_class == "io-noisy"
        assert node.clone().interference_class == "io-noisy"

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            Node("n", cpus=2, memory_gb=4, interference_class="")

    def test_pool_template_carries_class(self):
        pool = AutoscalingNodePool(
            node_cpus=4, node_memory_gb=16, node_interference_class="cloud-noisy"
        )
        assert pool.template_node("autoscale-1").interference_class == "cloud-noisy"

    def test_linear_slowdown_class_weights(self):
        model = LinearSlowdown(alpha=1.0, class_weights={"quiet": 0.0, "noisy": 2.0})
        quiet = Node("q", cpus=8, memory_gb=32, interference_class="quiet")
        noisy = Node("n", cpus=8, memory_gb=32, interference_class="noisy")
        standard = Node("s", cpus=8, memory_gb=32)
        neighbour = [_pod("big", name="nb")]
        pod = _pod(name="me")

        def speed(m, node):
            return m.node_speeds(node, [pod, *neighbour])[0]

        # weight 0: no slowdown at all; weight 2: twice the standard alpha.
        assert speed(model, quiet) == 1.0
        assert speed(model, noisy) < speed(model, standard) < 1.0
        # unknown classes weigh 1.0 (the plain alpha).
        assert speed(model, standard) == speed(LinearSlowdown(alpha=1.0), standard)

    def test_class_weighted_model_keeps_solo_invariant_and_pickles(self):
        model = LinearSlowdown(alpha=2.0, class_weights={"noisy": 5.0})
        noisy = Node("n", cpus=8, memory_gb=32, interference_class="noisy")
        assert model.node_speeds(noisy, [_pod()])[0] == 1.0
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        pair = [_pod(), _pod("big", name="nb")]
        assert clone.node_speeds(noisy, pair)[0] == model.node_speeds(noisy, pair)[0]
        with pytest.raises(ValueError):
            LinearSlowdown(alpha=1.0, class_weights={"noisy": -1.0})


# --------------------------------------------------------------------- #
class TestFirstFitExactParity:
    """The decoupled placement engine under an explicit FirstFit policy must
    reproduce the pre-refactor engine bit for bit on every pinned scenario,
    and naming FirstFit explicitly must change nothing."""

    def test_reference_file_covers_the_pre_refactor_registry(self):
        assert "first-fit" in _PARITY_PIN["placements"]
        assert set(_PARITY_PIN["scenarios"]) <= set(CONTENTION_SCENARIOS)
        assert len(_PARITY_PIN["scenarios"]) >= 10

    @pytest.mark.parametrize("name", sorted(_PARITY_PIN["scenarios"]))
    def test_scenario_summary_is_bit_identical(self, name):
        reference = _PARITY_PIN["scenarios"][name]["first-fit"]["summary"]
        scenario = build_scenario(name, seed=_PARITY_PIN["seed"])
        summary = run_scenario(scenario.with_placement(FirstFit())).summary()
        for key, value in reference.items():
            assert summary[key] == value, f"{name}.{key} drifted"

    def test_explicit_first_fit_equals_scheduler_default(self):
        scenario = build_scenario("interference-heavy", seed=0)
        default = run_scenario(scenario)
        explicit = run_scenario(scenario.with_placement("first-fit"))
        assert default.summary() == explicit.summary()
        for tenant in default.tenants:
            assert (
                default.tenants[tenant].decisions == explicit.tenants[tenant].decisions
            )
            assert default.tenants[tenant].runtimes == explicit.tenants[tenant].runtimes


# --------------------------------------------------------------------- #
class TestPlacementScenarios:
    def test_registry_has_placement_suite(self):
        assert {"spread-vs-pack", "hetero-nodes"} <= set(CONTENTION_SCENARIOS)

    def test_scenarios_with_placement_are_picklable(self):
        for name in ("spread-vs-pack", "hetero-nodes"):
            scenario = build_scenario(name, seed=0).with_placement("least-slowdown")
            clone = pickle.loads(pickle.dumps(scenario))
            assert clone.placement == scenario.placement

    def test_result_reports_the_placement_policy(self):
        base = build_scenario("spread-vs-pack", seed=0)
        assert run_scenario(base).placement == "first-fit"
        assert run_scenario(base.with_placement("pack")).placement == "pack"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_least_slowdown_beats_pack_on_interference_heavy(self, seed):
        """The acceptance criterion: interference-aware placement achieves
        strictly lower mean slowdown than adversarial packing."""
        base = build_scenario("interference-heavy", seed=seed)
        packed = run_scenario(base.with_placement("pack")).summary()
        aware = run_scenario(base.with_placement("least-slowdown")).summary()
        assert aware["mean_slowdown"] < packed["mean_slowdown"]
        assert aware["interference_inclusive_regret"] < packed["interference_inclusive_regret"]

    def test_hetero_nodes_reward_interference_aware_placement(self):
        base = build_scenario("hetero-nodes", seed=0)
        first_fit = run_scenario(base).summary()
        aware = run_scenario(base.with_placement("least-slowdown")).summary()
        # first-fit packs the io-noisy node (first in cluster order); the
        # aware policy reads the class weights and escapes to the quiet tier.
        assert aware["mean_slowdown"] < first_fit["mean_slowdown"]

    def test_with_placement_accepts_instances_and_restores_default(self):
        base = build_scenario("spread-vs-pack", seed=0)
        assert base.with_placement(Pack()).placement == Pack()
        assert base.with_placement("pack").with_placement(None).placement is None

    def test_slowdown_feedback_marks_every_tenant(self):
        scenario = build_scenario("interference-heavy", seed=0).with_slowdown_feedback(0.5)
        for tenant in scenario.tenants:
            assert tenant.reward is not None
            assert tenant.reward.mode == "slowdown_inclusive"
            assert tenant.reward.slowdown_weight == 0.5
        result = run_scenario(scenario)
        assert set(result.reward_modes.values()) == {"slowdown_inclusive"}
