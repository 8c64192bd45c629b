"""Evaluation harness: metrics, replicated online simulations and reporting.

The paper's figures are all built from the same protocol: run Algorithm 1 for
``n_rounds`` rounds, repeat the whole run ``n_sim`` times, and after every
round score the bandit's current per-arm models against the full historical
dataset (RMSE) and against the ground-truth best hardware (accuracy), with
the full-data fit as the reference line.  This package implements that
protocol once so every benchmark and example reuses it.

* :mod:`~repro.evaluation.metrics` -- RMSE and R².
* :mod:`~repro.evaluation.simulation` -- the replicated online simulation
  (:class:`OnlineSimulation`) and its result container.
* :mod:`~repro.evaluation.experiment` -- pre-configured experiment
  definitions matching each of the paper's figures.
* :mod:`~repro.evaluation.reporting` -- plain-text rendering of the series
  and tables the paper plots.
* :mod:`~repro.evaluation.engine` -- the unified event-driven experiment
  engine: one round/outcome ledger, one completion→observe path, one seeding
  discipline, plus the replication and scenario-sweep process pools.
* :mod:`~repro.evaluation.contention` -- contention-aware, cluster-in-the-loop
  evaluation: multi-tenant workflow streams (with priority/preemption
  scheduling, autoscaling node pools and queue-aware bandit feedback) driven
  through the engine with queue-aware regret accounting.
* :mod:`~repro.evaluation.service_load` -- the multi-application
  recommendation service that the benchmark's ``service-zipf`` workload
  drives, and its Zipfian application popularity.
"""

from repro.evaluation.metrics import r2_score, rmse
from repro.evaluation.simulation import (
    OnlineSimulation,
    SimulationConfig,
    SimulationResult,
)
from repro.evaluation.experiment import (
    EXPERIMENT_NAMES,
    ExperimentDefinition,
    ExperimentResult,
    build_experiment,
    run_experiment,
)
from repro.evaluation.engine import (
    ExperimentEngine,
    ReplicationSummary,
    run_scenario_replications,
    run_scenario_sweep,
)
from repro.evaluation.contention import (
    CONTENTION_SCENARIOS,
    ContentionResult,
    ContentionScenario,
    TenantOutcome,
    TenantSpec,
    build_scenario,
    run_scenario,
)
from repro.evaluation.reporting import (
    format_contention_report,
    format_kernel_profile,
    format_metric_table,
    format_replication_bands,
    format_series,
    format_summary,
)
from repro.evaluation.service_load import (
    ServiceLoadConfig,
    ZipfianAppMix,
    build_load_service,
)

__all__ = [
    "CONTENTION_SCENARIOS",
    "ContentionResult",
    "ContentionScenario",
    "TenantOutcome",
    "TenantSpec",
    "build_scenario",
    "run_scenario",
    "run_scenario_sweep",
    "run_scenario_replications",
    "ReplicationSummary",
    "ExperimentEngine",
    "format_contention_report",
    "format_kernel_profile",
    "format_replication_bands",
    "rmse",
    "r2_score",
    "OnlineSimulation",
    "SimulationConfig",
    "SimulationResult",
    "EXPERIMENT_NAMES",
    "ExperimentDefinition",
    "ExperimentResult",
    "build_experiment",
    "run_experiment",
    "format_series",
    "format_metric_table",
    "format_summary",
    "ZipfianAppMix",
    "ServiceLoadConfig",
    "build_load_service",
]
