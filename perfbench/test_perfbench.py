"""Smoke tests of the benchmark at tiny scale.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json

import pytest

import bench_trace
from bench_runner import COLD_SETUPS, measure
from bench_workloads import (
    REPO_ROOT,
    WORKLOADS,
    Fig7BP3D,
    InterferenceSweep,
    PriorityBacklog,
    ServiceZipf,
)

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

TINY = {
    "fig7-bp3d": Fig7BP3D(n_simulations=2, n_rounds=6),
    "interference-sweep": InterferenceSweep(replications=2),
    "priority-backlog-x32": PriorityBacklog(factor=1),
    "service-zipf": ServiceZipf(n_requests=160),
}


def _units(metrics):
    return {name: metric["unit"] for name, metric in metrics.items()}


def _wrapped_attributes():
    """Identity of every attribute the tracer wraps, keyed by owner and name."""
    found = {}
    for layer in bench_trace.LAYERS:
        for target in layer.targets:
            for owner in bench_trace._owners(target):
                for attr in target.attrs:
                    if attr in vars(owner):
                        found[(owner, attr)] = vars(owner)[attr]
    return found


def test_spec_names_the_benchmarked_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(TINY) == list(WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric_with_its_unit(name):
    result, report = measure(TINY[name], seed=0, seconds=0, trace=False)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["manifest"]["seed"] == 0


def test_setup_s_is_the_fastest_cold_setup():
    samples = iter([0.9, 0.7] + [0.8] * (COLD_SETUPS - 2))
    result, report = measure(
        TINY["fig7-bp3d"], seed=0, seconds=0, trace=False, cold_setup=lambda: next(samples)
    )
    assert len(report["setup_samples_s"]) == COLD_SETUPS
    assert result["metrics"]["setup_s"]["value"] == 0.7


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_emits_every_layer_metric_and_restores_wrappers(name, tmp_path):
    before = _wrapped_attributes()
    result, report = measure(TINY[name], seed=0, seconds=0, trace=True, trace_dir=tmp_path)
    assert result["correct"], report["problems"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _units(result["metrics"]) == expected
    after = _wrapped_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    spans = (tmp_path / f"{name}-seed0.jsonl").read_text().splitlines()
    assert json.loads(spans[0])["name"] == bench_trace.ROOT_SPAN
    assert len(spans) == result["metrics"]["trace.spans"]["value"]
