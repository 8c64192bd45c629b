"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.data import build_bp3d_dataset, build_cycles_dataset, build_matmul_dataset
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


def constant_workload(runtimes, name="const"):
    """A workload with exact, noise-free per-hardware runtimes.

    Shared by the cluster and contention suites for deterministic timing
    assertions; ``runtimes`` maps hardware name -> constant runtime seconds.
    """
    return LinearRuntimeWorkload(
        feature_ranges={"x": (0.0, 0.0)},
        coefficients={hw: ({"x": 0.0}, rt) for hw, rt in runtimes.items()},
        noise_sigma=0.0,
        name=name,
    )


def integrated_work(pod):
    """Integrate a finished pod's piecewise-constant progress rate.

    ``pod.progress_log`` holds the ``(time, speed)`` changepoints of the
    final attempt; the integral up to ``pod.finish_time`` must recover the
    pod's drawn ``work_seconds`` (work conservation).
    """
    log = pod.progress_log
    assert log, f"pod {pod.name} finished without a progress log"
    total = 0.0
    for (t0, s0), (t1, _) in zip(log, log[1:]):
        total += (t1 - t0) * s0
    t_last, s_last = log[-1]
    total += (pod.finish_time - t_last) * s_last
    return total


def synchronous_run(scenario):
    """The paper's one-workflow-per-round loop over a single-tenant scenario.

    Recommend, execute "alone" through
    :meth:`~repro.cluster.ClusterSimulator.run_workload`, observe -- on the
    same warm-started recommender and feature stream the engine builds.
    This is the reference the zero-contention parity tests hold the engine's
    queued path to.  Returns ``{"decisions", "runtimes", "hardware",
    "explored"}``, one entry per workflow: the recommended hardware, the
    observed runtime, the hardware the run executed on and whether the
    recommendation explored.
    """
    from repro.cluster import ClusterSimulator
    from repro.evaluation.engine import build_recommenders, tenant_feature_streams

    (tenant,) = scenario.tenants
    (recommender,) = build_recommenders(scenario)
    (features_stream,) = tenant_feature_streams(scenario)
    cluster = ClusterSimulator(
        workload=tenant.workload,
        catalog=scenario.union_catalog(),
        nodes=scenario.fresh_nodes(),
        scheduler=scenario.scheduler_factory(),
        seed=scenario.seed,
    )
    out = {"decisions": [], "runtimes": [], "hardware": [], "explored": []}
    for features in features_stream:
        recommendation = recommender.recommend(features)
        run = cluster.run_workload(features, recommendation.hardware)
        recommender.observe(features, recommendation.hardware, run.record.runtime_seconds)
        out["decisions"].append(recommendation.hardware.name)
        out["runtimes"].append(run.record.runtime_seconds)
        out["hardware"].append(run.record.hardware)
        out["explored"].append(recommendation.explored)
    return out


def experiment_input_digest(name):
    """SHA-256 of one registered experiment's evaluation inputs (seed 0).

    Covers the ground truth, noise scales, standardised contexts, acceptable
    arms and replay pool that ``OnlineSimulation`` builds before any round;
    none of them depends on the BLAS thread count.
    """
    from repro.evaluation.experiment import build_experiment

    sim = build_experiment(name, seed=0).simulation()
    digest = hashlib.sha256()
    for array in (sim._truth, sim._pool_sigma, sim._X_eval, sim._acceptable):
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(json.dumps(sim._workflow_pool, sort_keys=True).encode())
    return digest.hexdigest()


#: Pinned values of :func:`experiment_input_digest` for every name in
#: ``EXPERIMENT_NAMES`` (Figure 7 is ``bp3d_all_features``); captured before
#: ``noise_scale`` took the expectation instead of recomputing it, and never
#: re-captured to absorb drift.
EXPERIMENT_INPUT_DIGESTS = {
    "cycles_synthetic": "65396d9c818e728dab7ef4012895b57c923eb2d01a27db5e9e8240f4a5cc5820",
    "bp3d_all_features": "e9bd0cdca7307f355b22229b8c1db1ff7d3155ccfefe61e45f1456eb6d6d67a4",
    "bp3d_area_only": "69d858b868104425ca07a62ed5c9b9ad255ae61177d50212a99038bcf0c8ea00",
    "matmul_full_no_tolerance": "60dbc87952d594f025b60754748079be6a1c75d0360cfdab9efda52fed99c5af",
    "matmul_subset_no_tolerance": "a637f5a3578d00849b51e23b92e2f8bb81000c925a2ebac8f3a2d4493cd0a623",
    "matmul_full_tolerance_20s": "ac10459ce6216d2d5b8698760032390bcb6f1bf90e9195a77778e4af93291d87",
    "matmul_subset_tolerance_5pct": "713c3c828db02c9270ba0e2de00b3d184aaaff8bbe8369f049753cce456e4e02",
}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def ndp():
    """The NDP hardware triple H0=(2,16), H1=(3,24), H2=(4,16)."""
    return ndp_catalog()


@pytest.fixture
def synthetic4():
    """The four-way synthetic catalog of Experiment 1."""
    return synthetic_catalog(4)


@pytest.fixture
def matmul5():
    """The five-way catalog of Experiment 3."""
    return matmul_catalog()


@pytest.fixture
def cycles_workload():
    return CyclesWorkload()


@pytest.fixture
def bp3d_workload():
    return BurnPro3DWorkload()


@pytest.fixture
def matmul_workload():
    return MatrixMultiplicationWorkload()


@pytest.fixture
def linear_workload(ndp):
    """A random-but-fixed linear workload with genuinely different arms."""
    return LinearRuntimeWorkload.random(ndp, n_features=2, seed=7, noise_sigma=0.5)


@pytest.fixture
def small_cycles_frame(cycles_workload, synthetic4):
    """A small grid trace of the Cycles workload (5 workflows x 4 hardware)."""
    generator = TraceGenerator(cycles_workload, synthetic4, seed=11)
    return generator.generate_frame(5, grid=True)


@pytest.fixture(scope="session")
def cycles_bundle():
    return build_cycles_dataset()


@pytest.fixture(scope="session")
def bp3d_bundle():
    return build_bp3d_dataset()


@pytest.fixture(scope="session")
def matmul_bundle():
    return build_matmul_dataset()
