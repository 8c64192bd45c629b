"""A GPU-aware LLM-inference workload (the paper's stated future work).

Section 5 of the paper lists "additional applications, including large
language models (LLMs), enabling us to incorporate GPU information into
hardware recommendations" as future work.  This module implements that
extension so the recommender can be exercised on a catalog whose
configurations differ in GPU count as well as CPU/memory.

The runtime model follows the standard decomposition of autoregressive
inference into a compute-bound prefill phase and a memory-bandwidth-bound
decode phase:

``runtime = prefill(prompt_tokens) + decode(output_tokens) + batching/queueing overhead``

Both phases scale inversely with the number of GPUs (with an efficiency loss
for multi-GPU tensor parallelism); CPU-only configurations fall back to a much
slower CPU path, which is what makes GPU information decisive for this
application.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.hardware import HardwareCatalog, HardwareConfig
from repro.workloads.base import WorkloadModel

__all__ = ["LLMInferenceWorkload", "gpu_catalog"]


def gpu_catalog() -> HardwareCatalog:
    """A small catalog mixing CPU-only and GPU configurations.

    The CPU-only entries reuse the NDP sizing; the GPU entries model the kind
    of accelerator nodes the Nautilus cluster exposes.
    """
    return HardwareCatalog(
        [
            HardwareConfig("C4", cpus=4, memory_gb=32),
            HardwareConfig("C8", cpus=8, memory_gb=64),
            HardwareConfig("G1", cpus=8, memory_gb=64, gpus=1),
            HardwareConfig("G2", cpus=16, memory_gb=128, gpus=2),
            HardwareConfig("G4", cpus=32, memory_gb=256, gpus=4),
        ]
    )


class LLMInferenceWorkload(WorkloadModel):
    """Batch LLM-inference jobs parameterised by prompt/output length and batch size.

    Parameters
    ----------
    model_billion_params:
        Model size in billions of parameters; fixes the per-token cost.
    gpu_tokens_per_second:
        Decode throughput of a single GPU for a 7B-parameter model
        (tokens/second); scaled by model size and GPU count.
    cpu_slowdown:
        How much slower the CPU fallback path is than a single GPU.
    tensor_parallel_efficiency:
        Fraction of ideal speedup retained per additional GPU.
    noise_fraction:
        Runtime noise standard deviation as a fraction of the expectation.
    """

    name = "llm-inference"

    def __init__(
        self,
        model_billion_params: float = 7.0,
        gpu_tokens_per_second: float = 120.0,
        cpu_slowdown: float = 25.0,
        tensor_parallel_efficiency: float = 0.85,
        noise_fraction: float = 0.08,
    ):
        if model_billion_params <= 0:
            raise ValueError("model_billion_params must be positive")
        if gpu_tokens_per_second <= 0:
            raise ValueError("gpu_tokens_per_second must be positive")
        if cpu_slowdown < 1:
            raise ValueError("cpu_slowdown must be >= 1")
        if not 0.0 < tensor_parallel_efficiency <= 1.0:
            raise ValueError("tensor_parallel_efficiency must lie in (0, 1]")
        if noise_fraction < 0:
            raise ValueError("noise_fraction must be non-negative")
        self.model_billion_params = float(model_billion_params)
        self.gpu_tokens_per_second = float(gpu_tokens_per_second)
        self.cpu_slowdown = float(cpu_slowdown)
        self.tensor_parallel_efficiency = float(tensor_parallel_efficiency)
        self.noise_fraction = float(noise_fraction)

    # ------------------------------------------------------------------ #
    @property
    def feature_names(self) -> List[str]:
        return ["prompt_tokens", "output_tokens", "batch_size"]

    def sample_features(self, rng: np.random.Generator) -> Dict[str, float]:
        return {
            "prompt_tokens": float(rng.integers(64, 4097)),
            "output_tokens": float(rng.integers(16, 1025)),
            "batch_size": float(rng.integers(1, 65)),
        }

    # ------------------------------------------------------------------ #
    def _effective_tokens_per_second(self, hardware: HardwareConfig) -> Tuple[float, float]:
        """(decode tokens/s, prefill tokens/s) for ``hardware``."""
        size_factor = 7.0 / self.model_billion_params
        if hardware.gpus > 0:
            parallel = 1.0 + self.tensor_parallel_efficiency * (hardware.gpus - 1)
            decode = self.gpu_tokens_per_second * size_factor * parallel
        else:
            # CPU fallback: scales weakly with core count.
            cpu_scale = 1.0 + 0.05 * (hardware.cpus - 1)
            decode = self.gpu_tokens_per_second * size_factor * cpu_scale / self.cpu_slowdown
        # Prefill processes the prompt in parallel over its length, so it is
        # roughly an order of magnitude faster per token than decode.
        return decode, decode * 12.0

    def expected_runtime(self, features: Dict[str, float], hardware: HardwareConfig) -> float:
        prompt = float(features["prompt_tokens"])
        output = float(features["output_tokens"])
        batch = max(float(features.get("batch_size", 1.0)), 1.0)
        if prompt < 0 or output < 0:
            raise ValueError("token counts must be non-negative")
        decode_tps, prefill_tps = self._effective_tokens_per_second(hardware)
        # Requests in a batch share prefill bandwidth; decode is sequential in
        # output length but batched across requests with mild contention.
        prefill_seconds = batch * prompt / prefill_tps
        decode_seconds = output / decode_tps * (1.0 + 0.015 * (batch - 1.0))
        startup_seconds = 5.0 + 2.0 * hardware.gpus  # model load / shard init
        return startup_seconds + prefill_seconds + decode_seconds

    def noise_scale(self, expected: float) -> float:
        return self.noise_fraction * expected
