"""The Cycles agroecosystem workflow model (Experiment 1).

Cycles is an HTC scientific workflow whose makespan, per the paper, is well
explained by a single feature -- the number of tasks in the workflow
(``num_tasks``); the evaluated dataset contains 80 runs of two sizes (100 and
500 tasks), executed on four *synthetic* hardware settings that present a
clear performance trade-off (Figure 3 shows four well-separated lines with
different slopes).

The model here is deliberately simple and linear, because that is exactly the
regime the paper positions Experiment 1 in ("when the runtime can be
predicted as a linear combination of input variables and the hardware
configurations present a meaningful trade-off"):

``makespan(H, num_tasks) = per_task_seconds(H) * num_tasks + startup_seconds(H)``

where ``per_task_seconds`` shrinks with the hardware's aggregate compute
capacity.  The scale is calibrated so that a 500-task workflow takes roughly
3000 s on the smallest configuration, matching Figure 3's y-axis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.hardware import HardwareConfig
from repro.workloads.base import WorkloadModel

__all__ = ["CyclesWorkload"]


class CyclesWorkload(WorkloadModel):
    """Makespan model for the Cycles agroecosystem workflow.

    Parameters
    ----------
    task_sizes:
        Workflow sizes (number of tasks) the feature sampler draws from.  The
        paper's dataset uses 100 and 500; examples also exercise intermediate
        sizes so the linear fits are identifiable from more than two points.
    work_seconds_per_task:
        Serial work contained in one task, in seconds on a 1 GHz core.  The
        default (30 s) puts a 500-task run at ~3000 s on the 2-CPU synthetic
        configuration, matching the magnitude of Figure 3.
    startup_seconds:
        Hardware-independent workflow startup overhead (workflow-engine
        submission, container pulls).
    parallel_fraction:
        Fraction of the per-task work that parallelises across cores
        (Amdahl-style).  Cycles scales well, so the default is high.
    noise_fraction:
        Standard deviation of observation noise as a fraction of the
        expected makespan.
    """

    name = "cycles"

    def __init__(
        self,
        task_sizes: Sequence[int] = (100, 500),
        work_seconds_per_task: float = 30.0,
        startup_seconds: float = 60.0,
        parallel_fraction: float = 0.95,
        noise_fraction: float = 0.03,
    ):
        if not task_sizes:
            raise ValueError("task_sizes must contain at least one workflow size")
        if any(int(s) <= 0 for s in task_sizes):
            raise ValueError(f"task sizes must be positive, got {list(task_sizes)}")
        if work_seconds_per_task <= 0:
            raise ValueError("work_seconds_per_task must be positive")
        if startup_seconds < 0:
            raise ValueError("startup_seconds must be non-negative")
        if not 0.0 <= parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must lie in [0, 1]")
        if noise_fraction < 0:
            raise ValueError("noise_fraction must be non-negative")
        self.task_sizes = [int(s) for s in task_sizes]
        self.work_seconds_per_task = float(work_seconds_per_task)
        self.startup_seconds = float(startup_seconds)
        self.parallel_fraction = float(parallel_fraction)
        self.noise_fraction = float(noise_fraction)

    # ------------------------------------------------------------------ #
    @property
    def feature_names(self) -> List[str]:
        return ["num_tasks"]

    def sample_features(self, rng: np.random.Generator) -> Dict[str, float]:
        """Draw one workflow size uniformly from :attr:`task_sizes`."""
        size = self.task_sizes[int(rng.integers(len(self.task_sizes)))]
        return {"num_tasks": float(size)}

    def per_task_seconds(self, hardware: HardwareConfig) -> float:
        """Effective seconds of makespan contributed by each task on ``hardware``.

        Amdahl's law applied per task: the parallel fraction of the task's
        work is divided across the configuration's aggregate capacity
        (``cpus * clock``), the serial remainder only benefits from clock.
        """
        serial = (1.0 - self.parallel_fraction) * self.work_seconds_per_task / hardware.cpu_clock_ghz
        parallel = self.parallel_fraction * self.work_seconds_per_task / hardware.compute_capacity
        return serial + parallel

    def expected_runtime(self, features: Dict[str, float], hardware: HardwareConfig) -> float:
        num_tasks = float(features["num_tasks"])
        if num_tasks <= 0:
            raise ValueError(f"num_tasks must be positive, got {num_tasks}")
        return self.startup_seconds + self.per_task_seconds(hardware) * num_tasks

    def noise_scale(self, expected: float) -> float:
        return self.noise_fraction * expected

    # ------------------------------------------------------------------ #
    def true_coefficients(self, hardware: HardwareConfig) -> Dict[str, float]:
        """The ground-truth linear model ``makespan = w·num_tasks + b`` for ``hardware``.

        Used by tests and Figure 3's benchmark to compare BanditWare's learned
        per-arm coefficients against the generator's truth.
        """
        return {"w_num_tasks": self.per_task_seconds(hardware), "b": self.startup_seconds}
