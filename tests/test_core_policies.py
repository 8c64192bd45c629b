"""Tests for the arm-selection policies."""

import numpy as np
import pytest

from repro.core.models import LeastSquaresModel, RecursiveLeastSquaresModel, RidgeModel
from repro.core.policies import (
    DecayingEpsilonGreedyPolicy,
    GreedyPolicy,
    LinUCBPolicy,
    RandomPolicy,
    ThompsonSamplingPolicy,
)
from repro.core.selection import ToleranceConfig, TolerantSelector
from repro.hardware import ndp_catalog


def _fitted_models(catalog, slopes, intercepts, n_points=30):
    """One well-fitted 1-feature model per arm with the given true lines."""
    models = []
    xs = np.linspace(1, 10, n_points).reshape(-1, 1)
    for slope, intercept in zip(slopes, intercepts):
        model = LeastSquaresModel(1)
        model.fit(xs, slope * xs[:, 0] + intercept)
        models.append(model)
    return models


@pytest.fixture
def catalog():
    return ndp_catalog()


@pytest.fixture
def models(catalog):
    # H1 is clearly fastest for any positive context.
    return _fitted_models(catalog, slopes=[10.0, 2.0, 6.0], intercepts=[5.0, 5.0, 5.0])


class TestDecayingEpsilonGreedy:
    def test_epsilon_decays_each_round(self, catalog, models, rng):
        policy = DecayingEpsilonGreedyPolicy(epsilon0=1.0, decay=0.9)
        for expected_rounds in range(1, 6):
            policy.select(np.array([5.0]), models, catalog, rng)
            assert policy.epsilon == pytest.approx(0.9**expected_rounds)

    def test_zero_epsilon_exploits_fastest(self, catalog, models, rng):
        policy = DecayingEpsilonGreedyPolicy(epsilon0=0.0, decay=0.99)
        decision = policy.select(np.array([5.0]), models, catalog, rng)
        assert decision.hardware.name == "H1"
        assert not decision.explored

    def test_full_exploration_is_roughly_uniform(self, catalog, models):
        policy = DecayingEpsilonGreedyPolicy(epsilon0=1.0, decay=1.0)
        rng = np.random.default_rng(0)
        counts = {name: 0 for name in catalog.names}
        for _ in range(600):
            decision = policy.select(np.array([5.0]), models, catalog, rng)
            counts[decision.hardware.name] += 1
        assert min(counts.values()) > 120  # each arm ~200 expected

    def test_unseen_arms_are_seeded_first(self, catalog, rng):
        fresh = [LeastSquaresModel(1) for _ in catalog]
        policy = DecayingEpsilonGreedyPolicy(epsilon0=0.0, decay=0.99)
        chosen = []
        for _ in range(3):
            decision = policy.select(np.array([1.0]), fresh, catalog, rng)
            chosen.append(decision.arm_index)
            fresh[decision.arm_index].update_vector(np.array([1.0]), 10.0)
        assert sorted(chosen) == [0, 1, 2]

    def test_epsilon_not_decayed_during_seeding(self, catalog, rng):
        # Regression: the deterministic seed-unseen-arms rounds consume no
        # ε-draw, so they must not advance the Algorithm 1 decay schedule.
        fresh = [LeastSquaresModel(1) for _ in catalog]
        policy = DecayingEpsilonGreedyPolicy(epsilon0=1.0, decay=0.9)
        for _ in range(3):
            decision = policy.select(np.array([1.0]), fresh, catalog, rng)
            fresh[decision.arm_index].update_vector(np.array([1.0]), 10.0)
            assert policy.epsilon == 1.0  # |H| seeding rounds leave ε at ε₀
        for genuine_rounds in range(1, 4):
            policy.select(np.array([1.0]), fresh, catalog, rng)
            assert policy.epsilon == pytest.approx(0.9**genuine_rounds)

    def test_tolerance_trades_runtime_for_efficiency(self, catalog, rng):
        # H2 fastest, H0 within 20 s: exploitation should pick H0.
        models = _fitted_models(catalog, slopes=[2.0, 5.0, 1.0], intercepts=[10.0, 10.0, 10.0])
        policy = DecayingEpsilonGreedyPolicy(
            epsilon0=0.0, decay=0.99, tolerance=ToleranceConfig(seconds=20.0)
        )
        decision = policy.select(np.array([5.0]), models, catalog, rng)
        assert decision.hardware.name == "H0"

    def test_decision_detail_contains_epsilon(self, catalog, models, rng):
        policy = DecayingEpsilonGreedyPolicy()
        decision = policy.select(np.array([5.0]), models, catalog, rng)
        assert "epsilon" in decision.detail

    def test_estimates_included_in_decision(self, catalog, models, rng):
        policy = DecayingEpsilonGreedyPolicy(epsilon0=0.0)
        decision = policy.select(np.array([5.0]), models, catalog, rng)
        assert set(decision.estimates) == set(catalog.names)

    def test_audit_estimates_change_no_decision(self, catalog):
        """Audit on and off give one arm/explored/detail stream over 200 rounds."""
        streams = {}
        for audit in (True, False):
            policy = DecayingEpsilonGreedyPolicy(
                tolerance=ToleranceConfig(ratio=0.1, seconds=2.0), audit_estimates=audit
            )
            models = [LeastSquaresModel(2) for _ in catalog]
            rng, data = np.random.default_rng(3), np.random.default_rng(7)
            stream = []
            for _ in range(200):
                context = data.uniform(0.0, 10.0, size=2)
                decision = policy.select(context, models, catalog, rng)
                expected = (
                    {hw.name: m.predict_vector(context) for hw, m in zip(catalog, models)}
                    if audit
                    else {}
                )
                assert decision.estimates == expected
                stream.append((decision.arm_index, decision.explored, decision.detail))
                runtime = (decision.arm_index + 1.0) * context.sum() + data.normal(0.0, 0.5)
                models[decision.arm_index].update_vector(context, max(float(runtime), 0.0))
            streams[audit] = stream
        assert streams[True] == streams[False]
        exploited = [detail for _, explored, detail in streams[True] if not explored]
        assert len(exploited) > 50
        assert all("traded_runtime" in detail for detail in exploited)

    def test_model_count_mismatch(self, catalog, models, rng):
        policy = DecayingEpsilonGreedyPolicy()
        with pytest.raises(ValueError):
            policy.select(np.array([5.0]), models[:2], catalog, rng)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DecayingEpsilonGreedyPolicy(epsilon0=1.5)
        with pytest.raises(ValueError):
            DecayingEpsilonGreedyPolicy(decay=1.2)

    def test_paper_defaults(self):
        policy = DecayingEpsilonGreedyPolicy()
        assert policy.epsilon0 == 1.0
        assert policy.decay == 0.99


class TestGreedyPolicy:
    def test_always_exploits(self, catalog, models, rng):
        policy = GreedyPolicy()
        for _ in range(10):
            decision = policy.select(np.array([5.0]), models, catalog, rng)
            assert decision.hardware.name == "H1"

    def test_seeds_unseen_arms(self, catalog, rng):
        fresh = [LeastSquaresModel(1) for _ in catalog]
        policy = GreedyPolicy()
        decision = policy.select(np.array([1.0]), fresh, catalog, rng)
        assert decision.explored

    def test_tolerance_respected(self, catalog, rng):
        models = _fitted_models(catalog, slopes=[2.0, 5.0, 1.0], intercepts=[0.0, 0.0, 0.0])
        policy = GreedyPolicy(tolerance=ToleranceConfig(ratio=1.5))
        decision = policy.select(np.array([5.0]), models, catalog, rng)
        assert decision.hardware.name == "H0"

    def test_model_count_mismatch(self, catalog, models, rng):
        with pytest.raises(ValueError):
            GreedyPolicy().select(np.array([5.0]), models[:1], catalog, rng)

    def test_decision_records_the_selection(self, catalog, rng):
        models = _fitted_models(catalog, slopes=[2.0, 5.0, 1.0], intercepts=[0.0, 0.0, 0.0])
        tolerance = ToleranceConfig(ratio=1.5)
        context = np.array([5.0])
        decision = GreedyPolicy(tolerance=tolerance).select(context, models, catalog, rng)
        values = [model.predict_vector(context) for model in models]
        arm, _, limit, n_candidates = TolerantSelector(tolerance).select_index(catalog, values)
        assert decision.arm_index == arm
        assert decision.estimates == dict(zip(catalog.names, values))
        assert decision.detail == {"tolerance_limit": limit, "n_candidates": float(n_candidates)}

    def test_seeding_decision_carries_every_estimate(self, catalog, rng):
        fresh = [LeastSquaresModel(1) for _ in catalog]
        decision = GreedyPolicy().select(np.array([1.0]), fresh, catalog, rng)
        assert decision.arm_index == 0
        assert decision.estimates == {name: 0.0 for name in catalog.names}
        assert decision.detail == {"seeded_unseen_arm": 1.0}


class TestRandomPolicy:
    def test_uniform_coverage(self, catalog, models):
        rng = np.random.default_rng(1)
        policy = RandomPolicy()
        counts = {name: 0 for name in catalog.names}
        for _ in range(600):
            counts[policy.select(np.array([5.0]), models, catalog, rng).hardware.name] += 1
        assert min(counts.values()) > 120

    def test_always_marked_explored(self, catalog, models, rng):
        decision = RandomPolicy().select(np.array([5.0]), models, catalog, rng)
        assert decision.explored

    def test_model_count_mismatch(self, catalog, models, rng):
        with pytest.raises(ValueError):
            RandomPolicy().select(np.array([5.0]), models[:1], catalog, rng)


class TestLinUCBPolicy:
    def _rls_models(self, catalog, slopes, n_points):
        models = []
        xs = np.linspace(1, 10, max(n_points, 1))
        for slope, n in zip(slopes, [n_points] * len(slopes)):
            model = RecursiveLeastSquaresModel(1, regularization=1.0, noise_std=1.0)
            for x in xs[:n]:
                model.update_vector(np.array([x]), slope * x)
            models.append(model)
        return models

    def test_never_tried_arm_is_selected_first(self, catalog, rng):
        models = self._rls_models(catalog, [2.0, 2.0, 2.0], 10)
        models[2] = RecursiveLeastSquaresModel(1)  # untouched arm
        decision = LinUCBPolicy(alpha=1.0).select(np.array([5.0]), models, catalog, rng)
        assert decision.arm_index == 2
        assert decision.explored

    def test_alpha_zero_is_greedy(self, catalog, rng):
        models = self._rls_models(catalog, [10.0, 2.0, 6.0], 30)
        decision = LinUCBPolicy(alpha=0.0).select(np.array([5.0]), models, catalog, rng)
        assert decision.hardware.name == "H1"

    def test_optimism_prefers_uncertain_arm(self, catalog, rng):
        # Equal point estimates; the arm with far fewer observations should win.
        models = []
        for n in (200, 200, 2):
            model = RecursiveLeastSquaresModel(1, regularization=1.0, noise_std=5.0)
            for x in np.linspace(1, 10, n):
                model.update_vector(np.array([x]), 3.0 * x)
            models.append(model)
        decision = LinUCBPolicy(alpha=5.0).select(np.array([5.0]), models, catalog, rng)
        assert decision.arm_index == 2

    def test_ties_break_on_catalog_order_without_a_draw(self, catalog):
        # Fresh RLS arms share one prior, so every score ties.
        models = [RecursiveLeastSquaresModel(1) for _ in catalog]
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        decisions = [
            LinUCBPolicy().select(np.array([5.0]), models, catalog, rng) for _ in range(3)
        ]
        assert [d.arm_index for d in decisions] == [0, 0, 0]
        assert all(d.explored for d in decisions)
        assert rng.bit_generator.state == state

    def test_detail_exposes_scores(self, catalog, rng):
        models = self._rls_models(catalog, [1.0, 2.0, 3.0], 10)
        decision = LinUCBPolicy().select(np.array([5.0]), models, catalog, rng)
        assert any(key.startswith("lcb_") for key in decision.detail)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            LinUCBPolicy(alpha=-1.0)

    def test_model_count_mismatch(self, catalog, rng):
        models = self._rls_models(catalog, [1.0, 2.0, 3.0], 5)
        with pytest.raises(ValueError):
            LinUCBPolicy().select(np.array([5.0]), models[:2], catalog, rng)


class TestThompsonSamplingPolicy:
    def test_converges_to_best_arm(self, catalog):
        rng = np.random.default_rng(7)
        models = []
        for slope in (10.0, 2.0, 6.0):
            model = RecursiveLeastSquaresModel(1, regularization=1.0, noise_std=1.0)
            for x in np.linspace(1, 10, 200):
                model.update_vector(np.array([x]), slope * x + rng.normal(0, 0.1))
            models.append(model)
        policy = ThompsonSamplingPolicy()
        picks = [
            policy.select(np.array([5.0]), models, catalog, rng).hardware.name
            for _ in range(100)
        ]
        assert picks.count("H1") > 80

    def test_unfitted_arms_get_sampled(self, catalog):
        rng = np.random.default_rng(3)
        models = [RecursiveLeastSquaresModel(1) for _ in catalog]
        policy = ThompsonSamplingPolicy()
        picks = {policy.select(np.array([1.0]), models, catalog, rng).arm_index for _ in range(60)}
        assert len(picks) == 3

    def test_detail_contains_samples(self, catalog, rng):
        models = [RecursiveLeastSquaresModel(1) for _ in catalog]
        models[1].update_vector(np.array([5.0]), 10.0)
        decision = ThompsonSamplingPolicy().select(np.array([5.0]), models, catalog, rng)
        assert any(key.startswith("sample_") for key in decision.detail)

    def test_invalid_prior_scale(self):
        with pytest.raises(ValueError):
            ThompsonSamplingPolicy(prior_scale=0.0)

    def test_model_count_mismatch(self, catalog, models, rng):
        with pytest.raises(ValueError):
            ThompsonSamplingPolicy().select(np.array([5.0]), models[:1], catalog, rng)


@pytest.mark.parametrize("policy", [LinUCBPolicy(), ThompsonSamplingPolicy()], ids=lambda p: p.name)
@pytest.mark.parametrize("arm", [LeastSquaresModel, RidgeModel])
def test_posterior_policies_refuse_arms_without_one(catalog, policy, arm):
    # Only RLS keeps a posterior; any other arm is refused before any draw.
    models = [RecursiveLeastSquaresModel(1), arm(1), RecursiveLeastSquaresModel(1)]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(TypeError, match=arm.__name__):
        policy.select(np.array([5.0]), models, catalog, rng)
    assert rng.bit_generator.state == state
