"""Command-line interface for the BanditWare reproduction.

The CLI wraps the library's main entry points so a user can regenerate the
paper's artefacts (and their own variations) without writing Python:

* ``repro list-experiments`` -- names and descriptions of the registered
  experiments (one per bandit figure of the paper).
* ``repro run-experiment <name>`` -- run one experiment and print the
  per-round RMSE/accuracy series plus the summary.
* ``repro list-scenarios`` -- the contention-scenario registry with one-line
  descriptions.
* ``repro run-contention --scenario <name>`` -- play a multi-tenant workflow
  stream through the queued cluster simulator and report queue delay,
  occupancy cost and queue-inclusive regret; ``--placement`` swaps the
  node-choice policy, ``--replications`` adds confidence bands.
* ``repro generate-dataset <cycles|bp3d|matmul> --output DIR`` -- materialise
  one of the synthetic datasets to a directory of CSV/JSON files.
* ``repro show-catalog <ndp|synthetic|matmul|gpu>`` -- print a hardware
  catalog with its resource-efficiency ordering.
* ``repro recommend --dataset DIR --features k=v ...`` -- warm-start a
  recommender from a saved dataset directory and print the recommendation for
  one workflow.

Serving rates of the recommendation service are measured by the benchmark's
``service-zipf`` workload (``perfbench/``), not by a CLI command.

Invoke either as ``python -m repro ...`` or via the installed ``repro``
console script.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro.core import BanditWare, ToleranceConfig
from repro.data import (
    build_bp3d_dataset,
    build_cycles_dataset,
    build_matmul_dataset,
    load_run_history,
    save_dataset,
)
from repro.evaluation import (
    CONTENTION_SCENARIOS,
    EXPERIMENT_NAMES,
    build_experiment,
    build_scenario,
    format_contention_report,
    format_kernel_profile,
    format_metric_table,
    format_series,
    format_summary,
    run_experiment,
    run_scenario,
)
from repro.hardware import (
    matmul_catalog,
    ndp_catalog,
    rank_by_efficiency,
    synthetic_catalog,
)
from repro.workloads import gpu_catalog

__all__ = ["main", "build_parser"]

_DATASET_BUILDERS = {
    "cycles": build_cycles_dataset,
    "bp3d": build_bp3d_dataset,
    "matmul": build_matmul_dataset,
}

_CATALOGS = {
    "ndp": ndp_catalog,
    "synthetic": lambda: synthetic_catalog(4),
    "matmul": matmul_catalog,
    "gpu": gpu_catalog,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BanditWare reproduction: contextual-bandit hardware recommendation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-experiments", help="list the registered paper experiments")

    subparsers.add_parser(
        "list-scenarios",
        help="list the registered contention scenarios with their descriptions",
    )

    run = subparsers.add_parser("run-experiment", help="run one experiment and print its series")
    run.add_argument("name", choices=sorted(EXPERIMENT_NAMES))
    run.add_argument("--rounds", type=int, default=None, help="override the number of rounds")
    run.add_argument("--simulations", type=int, default=None, help="override the number of replications")
    run.add_argument("--subsample", type=int, default=None, help="evaluate against a row subsample")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--every", type=int, default=5, help="print every N-th round")
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the replications (bit-identical to serial)",
    )

    contention = subparsers.add_parser(
        "run-contention",
        help="run a multi-tenant contention scenario through the queued cluster",
    )
    contention.add_argument("--scenario", required=True, choices=sorted(CONTENTION_SCENARIOS))
    contention.add_argument("--seed", type=int, default=0)
    contention.add_argument(
        "--rows",
        type=int,
        default=0,
        help="also print the first N per-completion accounting rows",
    )
    contention.add_argument(
        "--sweep-seeds",
        type=int,
        default=0,
        help=(
            "instead of one run, sweep N seeds starting at --seed and print "
            "per-seed summaries (--rows applies to single runs only)"
        ),
    )
    contention.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the seed sweep (scenarios fan out over a pool)",
    )
    contention.add_argument(
        "--interference",
        default=None,
        metavar="MODEL",
        help=(
            "override the scenario's interference model: 'none', "
            "'linear[:ALPHA]' (slowdown per unit of co-resident utilisation) "
            "or 'capacity[:CPU_FRACTION]' (usable CPU fraction under sharing)"
        ),
    )
    contention.add_argument(
        "--placement",
        default=None,
        choices=["first-fit", "best-fit", "spread", "worst-fit", "pack", "least-slowdown"],
        help=(
            "override the node-choice policy the scenario's scheduler uses "
            "(ordering and placement are independent axes; the default keeps "
            "each scheduler's own policy -- first-fit everywhere)"
        ),
    )
    contention.add_argument(
        "--replications",
        type=int,
        default=0,
        help=(
            "replicate the scenario over N consecutive seeds and append "
            "per-round mean ± 95%% CI confidence bands to the report "
            "(mutually exclusive with --sweep-seeds)"
        ),
    )
    contention.add_argument(
        "--profile",
        action="store_true",
        help=(
            "append the simulator kernel's wall-time breakdown (progress "
            "re-integration, scheduling passes, placement scoring) to the "
            "report; scenario outputs are unaffected (single runs only)"
        ),
    )

    gen = subparsers.add_parser("generate-dataset", help="write a synthetic dataset to a directory")
    gen.add_argument("dataset", choices=sorted(_DATASET_BUILDERS))
    gen.add_argument("--output", required=True, help="output directory")
    gen.add_argument("--runs", type=int, default=None, help="override the number of runs")
    gen.add_argument("--seed", type=int, default=None, help="override the dataset seed")

    cat = subparsers.add_parser("show-catalog", help="print a hardware catalog")
    cat.add_argument("catalog", choices=sorted(_CATALOGS))

    rec = subparsers.add_parser(
        "recommend", help="warm-start from a saved dataset directory and recommend for one workflow"
    )
    rec.add_argument("--dataset", required=True, help="directory written by generate-dataset")
    rec.add_argument(
        "--features",
        nargs="+",
        required=True,
        metavar="NAME=VALUE",
        help="workflow features, e.g. size=8000",
    )
    rec.add_argument("--tolerance-ratio", type=float, default=0.0)
    rec.add_argument("--tolerance-seconds", type=float, default=0.0)
    rec.add_argument("--seed", type=int, default=0)
    return parser


#: Sentinel: the user did not pass --interference (None means "no model").
_KEEP_SCENARIO_INTERFERENCE = object()


def _parse_interference(spec: Optional[str]):
    """Parse an ``--interference`` override into a model (or the sentinel)."""
    from repro.cluster import CapacityContention, LinearSlowdown

    if spec is None:
        return _KEEP_SCENARIO_INTERFERENCE
    name, _, param = spec.partition(":")
    try:
        if name == "none":
            return None
        if name == "linear":
            return LinearSlowdown(alpha=float(param)) if param else LinearSlowdown()
        if name == "capacity":
            return (
                CapacityContention(cpu_fraction=float(param))
                if param
                else CapacityContention()
            )
    except ValueError as exc:
        raise SystemExit(f"invalid interference parameter in {spec!r}: {exc}") from exc
    raise SystemExit(
        f"unknown interference model {spec!r}; choose 'none', 'linear[:ALPHA]' "
        "or 'capacity[:CPU_FRACTION]'"
    )


def _parse_feature_args(pairs: Sequence[str]) -> Dict[str, float]:
    features: Dict[str, float] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"feature {pair!r} is not of the form NAME=VALUE")
        name, _, value = pair.partition("=")
        try:
            features[name.strip()] = float(value)
        except ValueError as exc:
            raise SystemExit(f"feature {name!r} has a non-numeric value {value!r}") from exc
    return features


def _cmd_list_experiments(out) -> int:
    for name in EXPERIMENT_NAMES:
        definition = build_experiment(name, n_simulations=1, n_rounds=1, evaluation_subsample=10)
        print(f"{name:<32} {definition.paper_reference:<18} {definition.description}", file=out)
    return 0


def _cmd_list_scenarios(out) -> int:
    """Print the contention-scenario registry with one-line descriptions."""
    for name in sorted(CONTENTION_SCENARIOS):
        scenario = build_scenario(name, seed=0)
        description = " ".join(scenario.description.split())
        interference = (
            type(scenario.interference).__name__ if scenario.interference else "none"
        )
        print(
            f"{name:<20} tenants={len(scenario.tenants)} nodes={len(scenario.nodes)} "
            f"interference={interference}",
            file=out,
        )
        print(f"{'':<20} {description}", file=out)
    return 0


def _cmd_run_experiment(args, out) -> int:
    for flag, value in (("--rounds", args.rounds), ("--simulations", args.simulations)):
        if value is not None and value < 1:
            raise SystemExit(f"{flag} must be positive, got {value}")
    definition = build_experiment(
        args.name,
        n_simulations=args.simulations,
        n_rounds=args.rounds,
        evaluation_subsample=args.subsample,
        seed=args.seed,
        n_workers=max(args.workers, 1),
    )
    print(f"running {definition.name}: {definition.description}", file=out)
    outcome = run_experiment(definition)
    print(format_series(outcome.result, every=max(args.every, 1), title=definition.paper_reference), file=out)
    print("", file=out)
    print(format_summary(outcome.summary(), title="summary"), file=out)
    return 0


def _cmd_run_contention(args, out) -> int:
    interference = _parse_interference(args.interference)
    if args.sweep_seeds > 0 and args.replications > 0:
        raise SystemExit("--sweep-seeds and --replications are mutually exclusive")
    if (args.sweep_seeds > 0 or args.replications > 0) and (args.profile or args.rows > 0):
        raise SystemExit(
            "--profile and --rows apply to single runs only, "
            "not to --sweep-seeds or --replications"
        )

    def _build(seed: int):
        scenario = build_scenario(args.scenario, seed=seed)
        if interference is not _KEEP_SCENARIO_INTERFERENCE:
            scenario = scenario.with_interference(interference)
        if args.placement is not None:
            scenario = scenario.with_placement(args.placement)
        return scenario

    if args.sweep_seeds > 0:
        from repro.evaluation import run_scenario_sweep

        seeds = range(args.seed, args.seed + args.sweep_seeds)
        scenarios = [_build(seed) for seed in seeds]
        results = run_scenario_sweep(scenarios, n_workers=max(args.workers, 1))
        rows = []
        for seed, result in zip(seeds, results):
            summary = result.summary()
            rows.append(
                {
                    "seed": seed,
                    "workflows": int(summary["workflows"]),
                    "queue_s": summary["total_queue_seconds"],
                    "slowdown": summary["mean_slowdown"],
                    "occupancy": summary["occupancy_cost"],
                    "wasted": summary["wasted_occupancy_cost"],
                    "pool_cost": summary["node_pool_cost"],
                    "q_regret_s": summary["queue_inclusive_regret"],
                    "accuracy": summary["accuracy"],
                }
            )
        print(
            format_metric_table(
                rows,
                title=(
                    f"scenario {args.scenario!r} sweep over seeds "
                    f"{seeds.start}..{seeds.stop - 1} "
                    f"({max(args.workers, 1)} workers)"
                ),
            ),
            file=out,
        )
        return 0
    scenario = _build(args.seed)
    model = type(scenario.interference).__name__ if scenario.interference else "none"
    placement = scenario.placement.name if scenario.placement is not None else "scheduler default"
    print(
        f"running contention scenario {scenario.name!r} "
        f"({len(scenario.tenants)} tenants, {len(scenario.nodes)} nodes, "
        f"interference={model}, placement={placement}, seed={args.seed})",
        file=out,
    )
    if args.replications > 0:
        from repro.evaluation import run_scenario_replications

        summary = run_scenario_replications(
            scenario, args.replications, n_workers=max(args.workers, 1)
        )
        print(format_contention_report(summary.results[0], replications=summary), file=out)
        return 0
    result = run_scenario(scenario, profile=args.profile)
    print(format_contention_report(result), file=out)
    if args.profile and result.kernel_profile is not None:
        print("", file=out)
        print(format_kernel_profile(result.kernel_profile), file=out)
    if args.rows > 0:
        print("", file=out)
        print(
            format_metric_table(
                result.rows[: args.rows],
                columns=[
                    "tenant",
                    "hardware",
                    "node",
                    "queue_seconds",
                    "runtime_seconds",
                    "occupancy_cost",
                    "queue_inclusive_regret",
                ],
                title=f"first {min(args.rows, len(result.rows))} completions",
            ),
            file=out,
        )
    return 0


def _cmd_generate_dataset(args, out) -> int:
    builder = _DATASET_BUILDERS[args.dataset]
    kwargs = {}
    if args.runs is not None:
        kwargs["n_runs"] = args.runs
    if args.seed is not None:
        kwargs["seed"] = args.seed
    bundle = builder(**kwargs)
    path = save_dataset(bundle, args.output)
    print(
        f"wrote {bundle.n_runs} {bundle.name} runs on {len(bundle.catalog)} hardware "
        f"configurations to {path}",
        file=out,
    )
    return 0


def _cmd_show_catalog(args, out) -> int:
    catalog = _CATALOGS[args.catalog]()
    ranked = {hw.name: rank for rank, hw in enumerate(rank_by_efficiency(catalog))}
    print(f"{'name':<6} {'cpus':>5} {'memory_gb':>10} {'gpus':>5} {'cost/h':>8} {'efficiency rank':>16}", file=out)
    for hw in catalog:
        print(
            f"{hw.name:<6} {hw.cpus:>5} {hw.memory_gb:>10.1f} {hw.gpus:>5} "
            f"{hw.cost_per_hour:>8.2f} {ranked[hw.name]:>16}",
            file=out,
        )
    return 0


def _cmd_recommend(args, out) -> int:
    try:
        history = load_run_history(args.dataset)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"cannot load dataset {args.dataset}: {exc}") from exc
    features = _parse_feature_args(args.features)
    missing = [name for name in history.feature_names if name not in features]
    if missing:
        raise SystemExit(
            f"missing features {missing}; the {history.name} dataset expects {history.feature_names}"
        )
    recommender = BanditWare(
        catalog=history.catalog,
        feature_names=history.feature_names,
        tolerance=ToleranceConfig(ratio=args.tolerance_ratio, seconds=args.tolerance_seconds),
        seed=args.seed,
    )
    ingested = recommender.warm_start(history.frame)
    tolerance = ToleranceConfig(ratio=args.tolerance_ratio, seconds=args.tolerance_seconds)
    choice = recommender.best_hardware(features, tolerance=tolerance)
    predictions = recommender.predict_runtimes(features)
    print(f"warm-started from {ingested} historical {history.application} runs", file=out)
    print("predicted runtimes:", file=out)
    for name, runtime in sorted(predictions.items(), key=lambda kv: kv[1]):
        marker = " <= recommended" if name == choice.name else ""
        print(f"  {name:<6} {runtime:>12.1f}s{marker}", file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-experiments":
            return _cmd_list_experiments(out)
        if args.command == "list-scenarios":
            return _cmd_list_scenarios(out)
        if args.command == "run-experiment":
            return _cmd_run_experiment(args, out)
        if args.command == "run-contention":
            return _cmd_run_contention(args, out)
        if args.command == "generate-dataset":
            return _cmd_generate_dataset(args, out)
        if args.command == "show-catalog":
            return _cmd_show_catalog(args, out)
        if args.command == "recommend":
            return _cmd_recommend(args, out)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; not an error.
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
