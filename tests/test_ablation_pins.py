"""The online policy and arm-model ablations, pinned bit for bit.

``benchmarks/test_ablation_policies_and_models.py`` asserts these runs with
wide tolerances, so a change that moves LinUCB's, Thompson sampling's or an
estimator's last bits would pass it.  These pins would not.  Each digest is
the SHA-256 of ``rmse.tobytes() + accuracy.tobytes()`` of one
:class:`~repro.evaluation.OnlineSimulation` run on the benchmark's dataset
and features, at a budget small enough for tier-1.

The values were captured before LinUCB and Thompson sampling were restricted
to recursive-least-squares arms, at 1 BLAS thread and at the default (two
threads on a SkylakeX OpenBLAS kernel), which agreed.  Never re-capture them
to absorb drift.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.data import build_bp3d_dataset, build_cycles_dataset
from repro.evaluation import OnlineSimulation, SimulationConfig

#: (policy, seed) on Cycles, ``num_tasks`` only, RLS arms, 20 s tolerance.
POLICY_PINS = {
    ("linucb", 0): "04c24970b6b8bf336df1004c6a1e1671a93d265b184b1ce3b3a72310f78a3f21",
    ("linucb", 3): "8edbcefbb28e01eaa47d2d9ec92ab225f301dd0ea05d11a71385eb35ba0435e0",
    ("thompson", 0): "93d48d62c2d883753236445d03e668ecd5504f644d1b6ab505d81bc869a261e3",
    ("thompson", 3): "5e79f5f4c5aaba99f4d63701bc422864b4d00c138e933eed142ab420348c3b5d",
}

#: Arm model on BP3D, all features, the paper's ε-greedy policy, seed 1.
ARM_MODEL_PINS = {
    "ols": "208134d40b025831ee1a77e5805a96e9b390721d9b1571a331858407345f0c50",
    "ridge": "6169ebc95348c7cd4612e4e9f60bbfa860258b85fcffb8a9ee084df062c7b24a",
    "rls": "377a80f78c4d0b10498e1098bc5207fead4ff09f71074ffcd2a7eadca23d4765",
}


def _digest(bundle, feature_names, **config) -> str:
    result = OnlineSimulation(
        workload=bundle.workload,
        catalog=bundle.catalog,
        evaluation_frame=bundle.frame,
        config=SimulationConfig(**config),
        feature_names=feature_names,
    ).run()
    return hashlib.sha256(result.rmse.tobytes() + result.accuracy.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def cycles():
    return build_cycles_dataset()


@pytest.fixture(scope="module")
def bp3d():
    return build_bp3d_dataset()


@pytest.mark.parametrize("policy, seed", sorted(POLICY_PINS))
def test_policy_ablation_matches_the_pin(cycles, policy, seed):
    digest = _digest(
        cycles,
        ["num_tasks"],
        n_rounds=30,
        n_simulations=4,
        policy=policy,
        arm_model="rls",
        tolerance_seconds=20.0,
        seed=seed,
    )
    assert digest == POLICY_PINS[(policy, seed)]


@pytest.mark.parametrize("arm_model", sorted(ARM_MODEL_PINS))
def test_arm_model_ablation_matches_the_pin(bp3d, arm_model):
    digest = _digest(
        bp3d, bp3d.feature_names, n_rounds=12, n_simulations=3, arm_model=arm_model, seed=1
    )
    assert digest == ARM_MODEL_PINS[arm_model]
