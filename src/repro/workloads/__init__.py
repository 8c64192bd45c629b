"""Application workload models and trace generators.

The paper evaluates BanditWare on three applications whose run histories were
collected on real NDP hardware.  Those traces are not public, so each
application is modelled here as a *workload model*: a feature sampler plus a
ground-truth runtime function per hardware configuration, calibrated to the
qualitative behaviour the paper reports (see README.md, "Substitutions").

* :mod:`~repro.workloads.base` -- abstractions shared by all workload models
  (:class:`WorkloadModel`, :class:`RunRecord`, :class:`TraceGenerator`).
* :mod:`~repro.workloads.cycles` -- the Cycles agroecosystem workflow
  (Experiment 1): makespan linear in the number of tasks, with hardware
  settings that present a clear trade-off.
* :mod:`~repro.workloads.burnpro3d` -- the BurnPro3D prescribed-fire platform
  (Experiment 2): the Table 1 feature set, runtimes linear in the features
  with heavy noise, and hardware settings that behave nearly identically.
* :mod:`~repro.workloads.matmul` -- the tiled matrix-squaring application
  (Experiment 3): runtime dominated by matrix size, five hardware options
  with genuinely different parallel efficiency, plus an actually executable
  tiled kernel.
* :mod:`~repro.workloads.synthetic` -- a generic linear-runtime workload used
  by property tests and ablations.
* :mod:`~repro.workloads.arrivals` -- workflow arrival processes (Poisson,
  bursty, closed-loop) for the multi-tenant contention evaluation.
"""

from repro.workloads.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    ClosedLoopArrivals,
    PoissonArrivals,
)
from repro.workloads.base import (
    RunRecord,
    TraceGenerator,
    WorkloadModel,
    records_to_frame,
)
from repro.workloads.cycles import CyclesWorkload
from repro.workloads.burnpro3d import BurnPro3DWorkload, BP3D_FEATURES, BP3D_FEATURE_DESCRIPTIONS
from repro.workloads.matmul import MatrixMultiplicationWorkload, tiled_matrix_square
from repro.workloads.synthetic import LinearRuntimeWorkload
from repro.workloads.llm import LLMInferenceWorkload, gpu_catalog

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "ClosedLoopArrivals",
    "LLMInferenceWorkload",
    "gpu_catalog",
    "RunRecord",
    "TraceGenerator",
    "WorkloadModel",
    "records_to_frame",
    "CyclesWorkload",
    "BurnPro3DWorkload",
    "BP3D_FEATURES",
    "BP3D_FEATURE_DESCRIPTIONS",
    "MatrixMultiplicationWorkload",
    "tiled_matrix_square",
    "LinearRuntimeWorkload",
]
