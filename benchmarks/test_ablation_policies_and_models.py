"""Ablations: selection policy, per-arm model and tolerance sweep.

The paper names richer contextual-bandit algorithms as future work and builds
its results on a single policy (decaying ε-greedy) and a single estimator
(batch least squares).  These ablation benchmarks quantify how those choices
matter on the same synthetic workloads:

* policy ablation -- ε-greedy vs greedy vs random vs LinUCB vs Thompson
  sampling on the Cycles experiment;
* arm-model ablation -- OLS vs ridge vs recursive least squares on the BP3D
  experiment (where early-round conditioning hurts OLS the most);
* tolerance sweep -- how ``tolerance_seconds`` moves accuracy and the average
  resource footprint on the matmul experiment (the design trade-off behind
  Figures 9-12).
"""

import numpy as np

from benchmarks.conftest import print_report, scaled
from repro.data.splits import truncate_by_threshold
from repro.evaluation import OnlineSimulation, SimulationConfig, format_metric_table


def _simulate(bundle, feature_names, frame=None, **config_kwargs):
    config = SimulationConfig(**config_kwargs)
    simulation = OnlineSimulation(
        workload=bundle.workload,
        catalog=bundle.catalog,
        evaluation_frame=frame if frame is not None else bundle.frame,
        config=config,
        feature_names=feature_names,
    )
    return simulation.run()


def test_ablation_policy_choice(benchmark, cycles_bundle):
    """All informed policies beat random data collection on Cycles."""
    policies = ("epsilon_greedy", "greedy", "random", "linucb", "thompson")
    n_rounds = scaled(60, 15)
    n_simulations = scaled(10, 3)

    def run_all():
        rows = []
        for policy in policies:
            arm_model = "rls" if policy in ("linucb", "thompson") else "ols"
            result = _simulate(
                cycles_bundle,
                ["num_tasks"],
                n_rounds=n_rounds,
                n_simulations=n_simulations,
                policy=policy,
                arm_model=arm_model,
                tolerance_seconds=20.0,
                seed=0,
            )
            rows.append(
                {
                    "policy": policy,
                    "final_rmse": result.rmse_at(n_rounds)[0],
                    "final_accuracy": result.accuracy_at(n_rounds)[0],
                    "reference_rmse": result.reference_rmse,
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    by_policy = {row["policy"]: row for row in rows}

    # Policies with sustained exploration (ε-greedy, random) collect data on
    # every arm and therefore model the whole catalog well.  Greedy, LinUCB
    # and Thompson sampling commit to the winning arm much earlier, which
    # starves the models of the arms they abandon -- exactly the trade-off
    # this ablation is meant to surface (visible in the printed table), so
    # only the exploring policies are held to the RMSE bound.
    for row in rows:
        if row["policy"] in ("epsilon_greedy", "random"):
            assert row["final_rmse"] < 6.0 * row["reference_rmse"]
    # The paper's ε-greedy policy is competitive with the alternatives.
    best_rmse = min(row["final_rmse"] for row in rows)
    assert by_policy["epsilon_greedy"]["final_rmse"] < 2.5 * best_rmse
    assert by_policy["epsilon_greedy"]["final_accuracy"] >= 0.5

    print_report("Ablation — selection policy (Cycles, tolerance 20 s)", format_metric_table(rows))


def test_ablation_arm_model_choice(benchmark, bp3d_bundle):
    """Regularised estimators tame the noisy early rounds on BP3D."""
    arm_models = ("ols", "ridge", "rls")
    n_rounds = scaled(40, 12)
    n_simulations = scaled(20, 3)

    def run_all():
        rows = []
        for arm_model in arm_models:
            result = _simulate(
                bp3d_bundle,
                bp3d_bundle.feature_names,
                n_rounds=n_rounds,
                n_simulations=n_simulations,
                arm_model=arm_model,
                seed=1,
            )
            rows.append(
                {
                    "arm_model": arm_model,
                    "rmse_round_10": result.rmse_at(min(10, n_rounds))[0],
                    "final_rmse": result.rmse_at(n_rounds)[0],
                    "reference_rmse": result.reference_rmse,
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    by_model = {row["arm_model"]: row for row in rows}

    # Every estimator converges toward the reference...
    for row in rows:
        assert row["final_rmse"] < 4.0 * row["reference_rmse"]
    # ...and a regularised estimator is no worse than plain OLS early on
    # (under-determined refits are exactly where OLS is fragile).
    regularised_best = min(by_model["ridge"]["rmse_round_10"], by_model["rls"]["rmse_round_10"])
    assert regularised_best <= by_model["ols"]["rmse_round_10"] * 1.05

    print_report("Ablation — per-arm estimator (BP3D, all features)", format_metric_table(rows))


def test_ablation_tolerance_sweep(benchmark, matmul_bundle):
    """tolerance_seconds trades a bounded slowdown for lighter hardware."""
    tolerances = (0.0, 5.0, 20.0, 60.0)
    n_rounds = scaled(80, 20)
    n_simulations = scaled(10, 3)
    frame = matmul_bundle.frame

    def run_all():
        rows = []
        for tolerance in tolerances:
            result = _simulate(
                matmul_bundle,
                ["size"],
                frame=frame,
                n_rounds=n_rounds,
                n_simulations=n_simulations,
                tolerance_seconds=tolerance,
                seed=2,
            )
            rows.append(
                {
                    "tolerance_s": tolerance,
                    "final_accuracy": result.accuracy_at(n_rounds)[0],
                    "final_rmse": result.rmse_at(n_rounds)[0],
                    "random_accuracy": result.random_accuracy,
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Accuracy (measured against the tolerance-consistent acceptable set) is
    # non-decreasing in the tolerance, and a 20 s allowance already lifts the
    # strict setting by a wide margin -- the Figure 9 → Figure 11 effect.
    accuracies = [row["final_accuracy"] for row in rows]
    assert accuracies[-1] >= accuracies[0]
    assert accuracies[2] > accuracies[0] + 0.15

    print_report("Ablation — tolerance_seconds sweep (matmul, full dataset)", format_metric_table(rows))
