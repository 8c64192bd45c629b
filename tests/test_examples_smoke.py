"""Smoke tests: every example script runs to completion.

The examples are part of the public deliverable, so the suite executes each
one in-process (same interpreter, no subprocess start-up cost) and checks that
it completes and prints something sensible.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = [
    "quickstart.py",
    "cycles_workflow.py",
    "burnpro3d_recommendation.py",
    "matmul_hardware_selection.py",
    "cluster_simulation.py",
    "contention_scenarios.py",
    "autoscale_priority.py",
    "interference_study.py",
    "placement_study.py",
]


def test_placement_study_shows_the_spread_saving(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "placement_study.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "least-slowdown cuts mean slowdown" in output
    assert "io-noisy vs numa-quiet" in output
    assert "slowdown-inclusive rewards" in output


def test_interference_study_shows_inflation(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "interference_study.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "co-residency inflates observed runtimes: True" in output
    assert "victim workflows ran" in output


def test_autoscale_priority_example_shows_improvement(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "autoscale_priority.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "queue-aware rewards reduce queue-inclusive regret: True" in output
    assert "preempted workflows" in output


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_to_completion(script, capsys):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"example {script} is missing"
    runpy.run_path(str(path), run_name="__main__")
    output = capsys.readouterr().out
    assert len(output.strip()) > 0


def test_quickstart_converges_to_h1(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "recommended hardware: H1" in output


def test_cluster_simulation_reports_improvement(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "cluster_simulation.py"), run_name="__main__")
    output = capsys.readouterr().out
    assert "banditware" in output
    assert "sooner" in output
