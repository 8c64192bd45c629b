"""Property-based tests for the core bandit machinery."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.models import LeastSquaresModel, RecursiveLeastSquaresModel, RidgeModel
from repro.core.selection import ToleranceConfig, TolerantSelector
from repro.core import BanditWare
from repro.hardware import (
    HardwareCatalog,
    HardwareConfig,
    footprint,
    matmul_catalog,
    ndp_catalog,
    rank_by_efficiency,
)

finite_floats = st.floats(min_value=0.0, max_value=1e5, allow_nan=False, allow_infinity=False)
small_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def catalogs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    configs = [
        HardwareConfig(f"H{i}", cpus=draw(st.integers(1, 32)), memory_gb=draw(st.integers(1, 256)))
        for i in range(n)
    ]
    return HardwareCatalog(configs)


class TestTolerantSelectionProperties:
    @settings(max_examples=150)
    @given(
        catalogs(),
        st.data(),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_chosen_is_always_within_tolerance(self, catalog, data, ratio, seconds):
        estimates = {
            name: data.draw(finite_floats, label=f"estimate_{name}") for name in catalog.names
        }
        selector = TolerantSelector(ToleranceConfig(ratio=ratio, seconds=seconds))
        values = list(estimates.values())
        chosen, fastest_arm, _, _ = selector.select_index(catalog, values)
        fastest = min(values)
        limit = (1.0 + ratio) * fastest + seconds
        assert values[chosen] <= limit + 1e-9
        assert values[fastest_arm] == fastest

    @settings(max_examples=100)
    @given(catalogs(), st.data())
    def test_strict_selection_minimises_runtime(self, catalog, data):
        estimates = {
            name: data.draw(finite_floats, label=f"estimate_{name}") for name in catalog.names
        }
        values = list(estimates.values())
        chosen = TolerantSelector().select_index(catalog, values)[0]
        assert values[chosen] == min(values)

    @settings(max_examples=100)
    @given(catalogs(), st.data(), st.floats(min_value=0.0, max_value=10.0))
    def test_widening_tolerance_never_increases_footprint(self, catalog, data, seconds):
        """A larger tolerance can only allow an equally or more efficient choice."""
        estimates = {
            name: data.draw(finite_floats, label=f"estimate_{name}") for name in catalog.names
        }
        values = list(estimates.values())
        narrow = TolerantSelector(ToleranceConfig(seconds=0.0)).select_index(catalog, values)[0]
        wide = TolerantSelector(ToleranceConfig(seconds=seconds)).select_index(catalog, values)[0]
        cost = [footprint(hw.cpus, hw.memory_gb, hw.gpus) for hw in catalog]
        assert cost[wide] <= cost[narrow] + 1e-12


#: Estimates that tie often: a small pool of repeated values (zeros of both
#: signs and negatives included) mixed with arbitrary finite floats.
tie_prone_estimates = st.one_of(
    st.sampled_from([-250.0, -50.0, -0.0, 0.0, 10.0, 100.0]),
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False),
)
tolerance_knob = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0))


class TestOneSelectionRule:
    @settings(max_examples=300)
    @given(
        st.sampled_from(["ndp", "matmul"]),
        st.data(),
        tolerance_knob.map(lambda v: v / 50.0),
        tolerance_knob,
    )
    def test_index_selection_follows_algorithm_1(self, catalog_name, data, ratio, seconds):
        catalog = ndp_catalog() if catalog_name == "ndp" else matmul_catalog()
        values = data.draw(
            st.lists(tie_prone_estimates, min_size=len(catalog), max_size=len(catalog)),
            label="estimates",
        )
        selector = TolerantSelector(ToleranceConfig(ratio=ratio, seconds=seconds))
        chosen, fastest, limit, n_candidates = selector.select_index(catalog, np.asarray(values))
        # A plain list of the same floats decides the same way.
        assert selector.select_index(catalog, values) == (chosen, fastest, limit, n_candidates)
        # Algorithm 1 as written: first-minimum fastest arm, the clamped
        # limit, the most efficient arm within it.
        first_fastest = int(np.argmin(values))
        reference_limit = max((1.0 + ratio) * values[first_fastest] + seconds, values[first_fastest])
        candidates = [hw for hw, value in zip(catalog, values) if value <= reference_limit]
        assert fastest == first_fastest
        assert limit == reference_limit
        assert catalog[chosen] == rank_by_efficiency(candidates)[0]
        assert n_candidates == len(candidates)


class TestModelProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(small_floats, small_floats),
            min_size=3,
            max_size=40,
        ),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    def test_ols_interpolates_noise_free_lines(self, xs, slope, intercept):
        """With >= 2 distinct x values and no noise, OLS reproduces the line."""
        x_values = np.asarray([x for x, _ in xs])
        assume(np.ptp(x_values) > 1e-3)
        y = np.clip(slope * x_values + intercept, 0.0, None)
        # Only keep cases where clipping did not kick in (still a pure line).
        assume(np.all(slope * x_values + intercept >= 0))
        model = LeastSquaresModel(1).fit(x_values.reshape(-1, 1), y)
        query = float(np.mean(x_values))
        assert model.predict([query]) == pytest.approx(slope * query + intercept, abs=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(small_floats, finite_floats), min_size=1, max_size=30))
    def test_rls_and_ridge_predictions_are_finite(self, pairs):
        rls = RecursiveLeastSquaresModel(1, regularization=1.0)
        ridge = RidgeModel(1, alpha=1.0)
        for x, y in pairs:
            rls.update_vector(np.array([x]), y)
            ridge.update_vector(np.array([x]), y)
        assert np.isfinite(rls.predict([1.0]))
        assert np.isfinite(ridge.predict([1.0]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(small_floats, finite_floats), min_size=2, max_size=25))
    def test_observation_count_matches_updates(self, pairs):
        model = LeastSquaresModel(1)
        for x, y in pairs:
            model.update_vector(np.array([x]), y)
        assert model.n_observations == len(pairs)


class TestBanditProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10_000))
    def test_observation_counts_sum_to_rounds(self, rounds, seed):
        catalog = ndp_catalog()
        bandit = BanditWare(catalog=catalog, feature_names=["x"], seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(rounds):
            features = {"x": float(rng.uniform(0, 10))}
            rec = bandit.recommend(features)
            bandit.observe(features, rec.hardware, float(rng.uniform(0, 100)))
        counts = bandit.observation_counts()
        assert sum(counts.values()) == rounds
        assert len(bandit.history) == rounds

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_epsilon_never_leaves_unit_interval(self, seed):
        catalog = ndp_catalog()
        bandit = BanditWare(catalog=catalog, feature_names=["x"], seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            features = {"x": float(rng.uniform(0, 10))}
            rec = bandit.recommend(features)
            assert 0.0 <= bandit.policy.epsilon <= 1.0
            bandit.observe(features, rec.hardware, float(rng.uniform(0, 100)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_predictions_are_finite_after_any_history(self, seed):
        catalog = ndp_catalog()
        bandit = BanditWare(catalog=catalog, feature_names=["x"], seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            features = {"x": float(rng.uniform(0, 10))}
            rec = bandit.recommend(features)
            bandit.observe(features, rec.hardware, float(rng.uniform(0, 1000)))
        predictions = bandit.predict_runtimes({"x": 5.0})
        assert all(np.isfinite(v) for v in predictions.values())
