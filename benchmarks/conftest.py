"""Shared fixtures and reporting helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures.  Because the
reproduction is terminal-only, each benchmark *prints* the series or table the
corresponding figure plots (run with ``-s`` to see them) and asserts the
qualitative claims the paper makes about it.  ``pytest-benchmark`` records the
wall-clock cost of regenerating each artefact.

The default simulation budgets follow the paper (e.g. ``n_sim = 100`` and
``n_rounds = 50`` for the BP3D experiments); set the environment variable
``REPRO_BENCH_FAST=1`` to shrink them.  That is a smoke run of the code
paths, not of the claims: at the shrunken budgets three claim asserts fail
(``test_fig7_bp3d_bandit.py``, ``test_claim_round25_gap.py`` and the policy
choice in ``test_ablation_policies_and_models.py``), because they hold only
at the paper's budgets.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.data import build_bp3d_dataset, build_cycles_dataset, build_matmul_dataset

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"


def scaled(paper_value: int, fast_value: int) -> int:
    """Paper-scale budget unless REPRO_BENCH_FAST is set."""
    return fast_value if FAST else paper_value


@pytest.fixture(scope="session")
def cycles_bundle():
    return build_cycles_dataset()


@pytest.fixture(scope="session")
def bp3d_bundle():
    return build_bp3d_dataset()


@pytest.fixture(scope="session")
def matmul_bundle():
    return build_matmul_dataset()


def ensemble_digest(*ensembles) -> str:
    """SHA-256 over each ensemble's ``rmse_scores`` bytes, then its ``r2_scores`` bytes, in order."""
    digest = hashlib.sha256()
    for ensemble in ensembles:
        digest.update(ensemble.rmse_scores.tobytes())
        digest.update(ensemble.r2_scores.tobytes())
    return digest.hexdigest()


def print_report(title: str, body: str) -> None:
    """Print a clearly delimited report block for one figure/table."""
    bar = "=" * 78
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
