"""Experiment 3 walkthrough: matrix multiplication and the tolerance knobs.

The matrix-squaring application is the paper's hardware-sensitive stress test:
its runtime is dominated by matrix size, small matrices finish in seconds on
any configuration, and large ones genuinely benefit from more cores.  This
example

* executes the *real* tiled matrix-squaring kernel at a few small sizes to
  show the application the synthetic model stands in for,
* shows where the best hardware crosses over as the matrix grows, and
* compares strict selection against ``tolerance_seconds=20`` /
  ``tolerance_ratio=5%`` selection, the trade-off behind Figures 9-12.

Run with::

    python examples/matmul_hardware_selection.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import BanditWare, MatrixMultiplicationWorkload, ToleranceConfig, matmul_catalog
from repro.hardware import footprint
from repro.workloads import tiled_matrix_square


def run_real_kernel() -> None:
    print("real tiled matrix-squaring kernel (small sizes):")
    rng = np.random.default_rng(0)
    for size in (128, 256, 512):
        matrix = rng.integers(0, 100, size=(size, size)).astype(float)
        start = time.perf_counter()
        result = tiled_matrix_square(matrix, tile_size=128, n_workers=4)
        elapsed = time.perf_counter() - start
        assert np.allclose(result, matrix @ matrix)
        print(f"  size={size:>5}: {elapsed * 1000:7.1f} ms (matches A @ A)")
    print()


def show_crossover(workload: MatrixMultiplicationWorkload) -> None:
    catalog = matmul_catalog()
    print("expected runtime (s) by matrix size and hardware (note the crossover):")
    header = "  size " + " ".join(f"{hw.name:>9}" for hw in catalog)
    print(header)
    for size in (500, 1500, 3000, 5000, 8000, 12500):
        features = {"size": float(size), "sparsity": 0.0, "min_value": 0, "max_value": 100}
        runtimes = [workload.expected_runtime(features, hw) for hw in catalog]
        best = int(np.argmin(runtimes))
        cells = " ".join(
            f"{'*' if i == best else ' '}{rt:8.1f}" for i, rt in enumerate(runtimes)
        )
        print(f"  {size:>5} {cells}")
    print("  (* = fastest configuration)\n")


def online_selection(workload: MatrixMultiplicationWorkload, tolerance: ToleranceConfig, label: str) -> None:
    catalog = matmul_catalog()
    bandit = BanditWare(
        catalog=catalog, feature_names=["size"], tolerance=tolerance, seed=11
    )
    rng = np.random.default_rng(5)
    correct_within_tolerance = 0
    total_footprint = 0.0
    n_rounds = 150
    for _ in range(n_rounds):
        features = workload.sample_features(rng)
        context = {"size": features["size"]}
        recommendation = bandit.recommend(context)
        runtime = workload.observed_runtime(features, recommendation.hardware, rng)
        bandit.observe(context, recommendation.hardware, runtime)

        truth = {hw.name: workload.expected_runtime(features, hw) for hw in catalog}
        limit = (1.0 + tolerance.ratio) * min(truth.values()) + tolerance.seconds
        correct_within_tolerance += int(truth[recommendation.hardware.name] <= limit)
        chosen = recommendation.hardware
        total_footprint += footprint(chosen.cpus, chosen.memory_gb, chosen.gpus)

    print(
        f"{label:<28} accuracy-within-tolerance={correct_within_tolerance / n_rounds:.2f} "
        f"mean-footprint={total_footprint / n_rounds:.2f} CPU-equivalents"
    )


def main() -> None:
    run_real_kernel()
    workload = MatrixMultiplicationWorkload()
    show_crossover(workload)

    print("online selection over 150 matrix workflows (higher accuracy, lower footprint = better):")
    online_selection(workload, ToleranceConfig(), "strict (no tolerance)")
    online_selection(workload, ToleranceConfig(seconds=20.0), "tolerance_seconds = 20")
    online_selection(workload, ToleranceConfig(ratio=0.05), "tolerance_ratio = 5%")


if __name__ == "__main__":
    main()
