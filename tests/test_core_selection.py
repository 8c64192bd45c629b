"""Tests for tolerant selection (the exploitation branch of Algorithm 1)."""

import numpy as np
import pytest

from repro.core.selection import SelectionOutcome, ToleranceConfig, TolerantSelector
from repro.hardware import HardwareCatalog, HardwareConfig, ndp_catalog


class TestToleranceConfig:
    def test_defaults_are_strict(self):
        tol = ToleranceConfig()
        assert tol.is_strict
        assert tol.limit(100.0) == 100.0

    def test_ratio_limit(self):
        assert ToleranceConfig(ratio=0.05).limit(100.0) == pytest.approx(105.0)

    def test_seconds_limit(self):
        assert ToleranceConfig(seconds=20.0).limit(100.0) == pytest.approx(120.0)

    def test_combined_limit_matches_algorithm_1(self):
        # R_limit = (1 + tr) * R_fastest + ts
        tol = ToleranceConfig(ratio=0.1, seconds=5.0)
        assert tol.limit(200.0) == pytest.approx(1.1 * 200.0 + 5.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ToleranceConfig(ratio=-0.1)
        with pytest.raises(ValueError):
            ToleranceConfig(seconds=-1.0)

    def test_limit_clamped_for_negative_fastest_estimate(self):
        # Regression: early under-determined fits can predict a *negative*
        # fastest runtime; (1 + ratio) * R̂ with R̂ < 0 used to shrink the
        # window below the fastest estimate, excluding even the fastest arm.
        tol = ToleranceConfig(ratio=0.5)
        assert tol.limit(-100.0) == -100.0
        # A large-enough absolute allowance can still widen the window...
        assert ToleranceConfig(ratio=0.5, seconds=60.0).limit(-100.0) == pytest.approx(-90.0)
        # ...but a small one cannot push the limit below the fastest estimate.
        assert ToleranceConfig(ratio=0.5, seconds=20.0).limit(-100.0) == -100.0

    def test_limit_accepts_arrays(self):
        tol = ToleranceConfig(ratio=0.1)
        fastest = np.asarray([100.0, -50.0, 0.0])
        limits = tol.limit(fastest)
        assert np.allclose(limits, [110.0, -50.0, 0.0])


class TestTolerantSelector:
    def test_strict_selection_picks_fastest(self, ndp):
        selector = TolerantSelector()
        outcome = selector.select(ndp, {"H0": 100.0, "H1": 90.0, "H2": 95.0})
        assert outcome.chosen.name == "H1"
        assert outcome.fastest.name == "H1"
        assert outcome.candidates == ["H1"]

    def test_tolerance_prefers_efficient_hardware(self, ndp):
        # H2 is fastest but H0 is within 20 s and uses fewer resources.
        selector = TolerantSelector(ToleranceConfig(seconds=20.0))
        outcome = selector.select(ndp, {"H0": 110.0, "H1": 130.0, "H2": 100.0})
        assert outcome.fastest.name == "H2"
        assert outcome.chosen.name == "H0"
        assert set(outcome.candidates) == {"H0", "H2"}

    def test_ratio_tolerance(self, ndp):
        selector = TolerantSelector(ToleranceConfig(ratio=0.05))
        outcome = selector.select(ndp, {"H0": 104.0, "H1": 106.0, "H2": 100.0})
        assert outcome.chosen.name == "H0"

    def test_out_of_tolerance_candidates_excluded(self, ndp):
        selector = TolerantSelector(ToleranceConfig(seconds=5.0))
        outcome = selector.select(ndp, {"H0": 200.0, "H1": 150.0, "H2": 100.0})
        assert outcome.chosen.name == "H2"
        assert outcome.candidates == ["H2"]

    def test_negative_estimates_keep_fastest_in_window(self, ndp):
        # Regression: with R̂ < 0 and a ratio tolerance, the unclamped limit
        # used to fall below the fastest estimate and empty the window.
        selector = TolerantSelector(ToleranceConfig(ratio=0.2))
        outcome = selector.select(ndp, {"H0": -50.0, "H1": -30.0, "H2": 10.0})
        assert outcome.fastest.name == "H0"
        assert "H0" in outcome.candidates
        assert outcome.limit >= -50.0
        arm, fastest, limit, n_candidates = selector.select_index(
            ndp, np.asarray([-50.0, -30.0, 10.0])
        )
        assert ndp[arm].name == outcome.chosen.name
        assert n_candidates == len(outcome.candidates)

    def test_sequence_estimates_follow_catalog_order(self, ndp):
        selector = TolerantSelector()
        outcome = selector.select(ndp, [50.0, 40.0, 60.0])
        assert outcome.chosen.name == "H1"

    def test_traded_runtime(self, ndp):
        selector = TolerantSelector(ToleranceConfig(seconds=30.0))
        outcome = selector.select(ndp, {"H0": 120.0, "H1": 140.0, "H2": 100.0})
        assert (outcome.fastest.name, outcome.chosen.name) == ("H2", "H0")
        traded = outcome.estimates[outcome.chosen.name] - outcome.estimates[outcome.fastest.name]
        assert traded == pytest.approx(20.0)

    def test_missing_estimate_rejected(self, ndp):
        with pytest.raises(KeyError):
            TolerantSelector().select(ndp, {"H0": 1.0, "H1": 2.0})

    def test_wrong_length_sequence_rejected(self, ndp):
        with pytest.raises(ValueError):
            TolerantSelector().select(ndp, [1.0, 2.0])

    def test_non_finite_estimates_rejected(self, ndp):
        with pytest.raises(ValueError):
            TolerantSelector().select(ndp, {"H0": np.nan, "H1": 1.0, "H2": 2.0})

    def test_tie_breaks_deterministically(self, ndp):
        selector = TolerantSelector()
        outcome_a = selector.select(ndp, {"H0": 100.0, "H1": 100.0, "H2": 100.0})
        outcome_b = selector.select(ndp, {"H0": 100.0, "H1": 100.0, "H2": 100.0})
        assert outcome_a.chosen.name == outcome_b.chosen.name == "H0"

    def test_negative_estimates_allowed(self, ndp):
        """Linear models can extrapolate below zero early on; selection must cope."""
        selector = TolerantSelector(ToleranceConfig(ratio=0.1))
        outcome = selector.select(ndp, {"H0": -50.0, "H1": 10.0, "H2": 20.0})
        assert outcome.fastest.name == "H0"
        assert outcome.chosen.name == "H0"

    def test_zero_estimates(self, ndp):
        outcome = TolerantSelector(ToleranceConfig(seconds=0.0)).select(
            ndp, {"H0": 0.0, "H1": 0.0, "H2": 0.0}
        )
        assert outcome.chosen.name == "H0"  # all tie, most efficient wins
