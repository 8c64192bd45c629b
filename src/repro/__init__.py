"""BanditWare reproduction: contextual-bandit hardware recommendation.

This package reproduces *BanditWare: A Contextual Bandit-based Framework for
Hardware Prediction* (Coleman et al., HPDC 2025).  The public API is organised
around:

* :class:`repro.BanditWare` -- the online recommender (Algorithm 1: decaying
  contextual ε-greedy with tolerant selection over per-hardware linear
  runtime models);
* :mod:`repro.hardware` -- hardware configurations and catalogs (the arms);
* :mod:`repro.workloads` -- the three application models from the paper
  (Cycles, BurnPro3D, matrix multiplication) plus generic synthetic
  workloads;
* :mod:`repro.cluster` -- a Kubernetes-like execution simulator standing in
  for the National Data Platform;
* :mod:`repro.baselines` -- the offline linear-regression recommender and
  the full-data fit the paper compares against;
* :mod:`repro.evaluation` -- the replicated online-simulation harness behind
  every figure;
* :mod:`repro.data` -- deterministic builders of the three evaluation
  datasets;
* :mod:`repro.integration` -- an NDP-style recommendation service tying the
  pieces together.

Quickstart::

    from repro import BanditWare, ndp_catalog

    bw = BanditWare(catalog=ndp_catalog(), feature_names=["area"], seed=0)
    rec = bw.recommend({"area": 1.5e6})
    bw.observe({"area": 1.5e6}, rec.hardware, runtime_seconds=41_230.0)
"""

from repro.core import (
    BanditWare,
    DecayingEpsilonGreedyPolicy,
    GreedyPolicy,
    LeastSquaresModel,
    LinUCBPolicy,
    RandomPolicy,
    Recommendation,
    RecursiveLeastSquaresModel,
    RidgeModel,
    ThompsonSamplingPolicy,
    ToleranceConfig,
    TolerantSelector,
)
from repro.dataframe import DataFrame, Series, read_csv, write_csv
from repro.hardware import (
    HardwareCatalog,
    HardwareConfig,
    matmul_catalog,
    ndp_catalog,
    synthetic_catalog,
)
from repro.workloads import (
    BurnPro3DWorkload,
    CyclesWorkload,
    LinearRuntimeWorkload,
    MatrixMultiplicationWorkload,
    TraceGenerator,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "BanditWare",
    "Recommendation",
    "ToleranceConfig",
    "TolerantSelector",
    "DecayingEpsilonGreedyPolicy",
    "GreedyPolicy",
    "RandomPolicy",
    "LinUCBPolicy",
    "ThompsonSamplingPolicy",
    "LeastSquaresModel",
    "RidgeModel",
    "RecursiveLeastSquaresModel",
    # hardware
    "HardwareConfig",
    "HardwareCatalog",
    "ndp_catalog",
    "synthetic_catalog",
    "matmul_catalog",
    # workloads
    "CyclesWorkload",
    "BurnPro3DWorkload",
    "MatrixMultiplicationWorkload",
    "LinearRuntimeWorkload",
    "TraceGenerator",
    # dataframe
    "DataFrame",
    "Series",
    "read_csv",
    "write_csv",
]
