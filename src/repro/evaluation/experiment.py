"""Pre-configured experiment definitions matching the paper's figures.

Each of the paper's bandit figures (4, 6, 7, 9, 10, 11, 12) is one
combination of dataset, context features, tolerance and simulation budget.
:func:`build_experiment` encodes those combinations by name so benchmarks,
examples, the ``run-experiment`` command and the tests' input pins all run
exactly the same configurations, and :func:`run_experiment` executes one and
returns both the raw simulation result and the derived comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data import (
    build_bp3d_dataset,
    build_cycles_dataset,
    build_matmul_dataset,
)
from repro.data.splits import truncate_by_threshold
from repro.dataframe import DataFrame
from repro.evaluation.simulation import OnlineSimulation, SimulationConfig, SimulationResult
from repro.hardware import HardwareCatalog
from repro.workloads.base import WorkloadModel

__all__ = ["ExperimentDefinition", "ExperimentResult", "build_experiment", "run_experiment", "EXPERIMENT_NAMES"]


@dataclass
class ExperimentDefinition:
    """Everything needed to run one of the paper's bandit experiments."""

    name: str
    description: str
    workload: WorkloadModel
    catalog: HardwareCatalog
    evaluation_frame: DataFrame
    feature_names: List[str]
    config: SimulationConfig
    paper_reference: str = ""

    def simulation(self) -> OnlineSimulation:
        """Instantiate the replicated online simulation for this experiment."""
        return OnlineSimulation(
            workload=self.workload,
            catalog=self.catalog,
            evaluation_frame=self.evaluation_frame,
            config=self.config,
            feature_names=self.feature_names,
        )


@dataclass
class ExperimentResult:
    """An experiment's simulation result plus convenience comparisons."""

    definition: ExperimentDefinition
    result: SimulationResult

    def summary(self) -> Dict[str, float]:
        data = self.result.summary()
        data["rmse_gap_round_25"] = (
            self.result.rmse_gap_to_reference(min(25, self.result.n_rounds))
        )
        data["accuracy_vs_random"] = (
            self.result.accuracy_at(self.result.n_rounds)[0] - self.result.random_accuracy
        )
        return data


#: Experiment names accepted by :func:`build_experiment`.
EXPERIMENT_NAMES = (
    "cycles_synthetic",          # Figure 4 (and the fits behind Figure 3)
    "bp3d_all_features",         # Figure 7
    "bp3d_area_only",            # Figure 6
    "matmul_full_no_tolerance",      # Figure 9
    "matmul_subset_no_tolerance",    # Figure 10
    "matmul_full_tolerance_20s",     # Figure 11
    "matmul_subset_tolerance_5pct",  # Figure 12
)


def build_experiment(
    name: str,
    n_simulations: Optional[int] = None,
    n_rounds: Optional[int] = None,
    evaluation_subsample: Optional[int] = None,
    seed: int = 0,
    n_workers: int = 1,
) -> ExperimentDefinition:
    """Build a named experiment definition.

    ``n_simulations`` / ``n_rounds`` default (when ``None``) to the paper's
    settings for that experiment but can be reduced for quick runs (the test
    suite uses small values; the benchmarks use the paper's); a value below 1
    raises ``ValueError``.  ``n_workers > 1`` runs the replications in a
    process pool, bit-identical to the serial path.
    """
    if name == "cycles_synthetic":
        bundle = build_cycles_dataset()
        config = SimulationConfig(
            n_rounds=100 if n_rounds is None else n_rounds,
            n_simulations=10 if n_simulations is None else n_simulations,
            tolerance_seconds=20.0,
            evaluation_subsample=evaluation_subsample,
            seed=seed,
            n_workers=n_workers,
        )
        return ExperimentDefinition(
            name=name,
            description="Cycles on 4 synthetic hardware settings, tolerance 20 s (Figures 3-4)",
            workload=bundle.workload,
            catalog=bundle.catalog,
            evaluation_frame=bundle.frame,
            feature_names=["num_tasks"],
            config=config,
            paper_reference="Figures 3, 4a, 4b",
        )

    if name in ("bp3d_all_features", "bp3d_area_only"):
        bundle = build_bp3d_dataset()
        features = bundle.feature_names if name == "bp3d_all_features" else ["area"]
        config = SimulationConfig(
            n_rounds=50 if n_rounds is None else n_rounds,
            n_simulations=100 if n_simulations is None else n_simulations,
            evaluation_subsample=evaluation_subsample,
            seed=seed,
            n_workers=n_workers,
        )
        reference = "Figures 7a, 7b" if name == "bp3d_all_features" else "Figure 6"
        return ExperimentDefinition(
            name=name,
            description=f"BurnPro3D on the NDP triple using {'all features' if len(features) > 1 else 'area only'}",
            workload=bundle.workload,
            catalog=bundle.catalog,
            evaluation_frame=bundle.frame,
            feature_names=features,
            config=config,
            paper_reference=reference,
        )

    if name.startswith("matmul_"):
        bundle = build_matmul_dataset()
        frame = bundle.frame
        if "subset" in name:
            frame = truncate_by_threshold(frame, "size", 5000.0, keep="above")
        tolerance_seconds = 20.0 if name.endswith("tolerance_20s") else 0.0
        tolerance_ratio = 0.05 if name.endswith("tolerance_5pct") else 0.0
        figure = {
            "matmul_full_no_tolerance": "Figures 9a, 9b",
            "matmul_subset_no_tolerance": "Figures 10a, 10b",
            "matmul_full_tolerance_20s": "Figures 11a, 11b",
            "matmul_subset_tolerance_5pct": "Figures 12a, 12b",
        }.get(name)
        if figure is None:
            raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")
        config = SimulationConfig(
            n_rounds=100 if n_rounds is None else n_rounds,
            n_simulations=10 if n_simulations is None else n_simulations,
            tolerance_seconds=tolerance_seconds,
            tolerance_ratio=tolerance_ratio,
            evaluation_subsample=evaluation_subsample,
            seed=seed,
            n_workers=n_workers,
        )
        return ExperimentDefinition(
            name=name,
            description=f"Matrix multiplication ({'size >= 5000 subset' if 'subset' in name else 'full dataset'}), "
            f"tolerance ratio={tolerance_ratio}, seconds={tolerance_seconds}",
            workload=bundle.workload,
            catalog=bundle.catalog,
            evaluation_frame=frame,
            feature_names=["size"],
            config=config,
            paper_reference=figure,
        )

    raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")


def run_experiment(definition: ExperimentDefinition) -> ExperimentResult:
    """Run one experiment definition end to end."""
    result = definition.simulation().run()
    return ExperimentResult(definition=definition, result=result)
