"""Tests for tolerant selection (the exploitation branch of Algorithm 1)."""

import numpy as np
import pytest

from repro.core.selection import ToleranceConfig, TolerantSelector
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


def _select(selector, catalog, estimates):
    """``select_index`` on ``{name: estimate}``, named: (chosen, fastest, limit, n_candidates)."""
    values = [estimates[name] for name in catalog.names]
    chosen, fastest, limit, n_candidates = selector.select_index(catalog, values)
    return catalog[chosen].name, catalog[fastest].name, limit, n_candidates


class TestTolerantSelector:
    def test_strict_selection_picks_fastest(self, ndp):
        chosen, fastest, _, n_candidates = _select(
            TolerantSelector(), ndp, {"H0": 100.0, "H1": 90.0, "H2": 95.0}
        )
        assert (chosen, fastest, n_candidates) == ("H1", "H1", 1)

    def test_tolerance_prefers_efficient_hardware(self, ndp):
        # H2 is fastest but H0 is within 20 s and uses fewer resources.
        selector = TolerantSelector(ToleranceConfig(seconds=20.0))
        chosen, fastest, _, n_candidates = _select(
            selector, ndp, {"H0": 110.0, "H1": 130.0, "H2": 100.0}
        )
        assert (chosen, fastest, n_candidates) == ("H0", "H2", 2)

    def test_ratio_tolerance(self, ndp):
        selector = TolerantSelector(ToleranceConfig(ratio=0.05))
        assert _select(selector, ndp, {"H0": 104.0, "H1": 106.0, "H2": 100.0})[0] == "H0"

    def test_out_of_tolerance_candidates_excluded(self, ndp):
        selector = TolerantSelector(ToleranceConfig(seconds=5.0))
        chosen, _, _, n_candidates = _select(
            selector, ndp, {"H0": 200.0, "H1": 150.0, "H2": 100.0}
        )
        assert (chosen, n_candidates) == ("H2", 1)

    def test_negative_estimates_keep_fastest_in_window(self, ndp):
        # Regression: with R̂ < 0 and a ratio tolerance, the unclamped limit
        # used to fall below the fastest estimate and empty the window.
        selector = TolerantSelector(ToleranceConfig(ratio=0.2))
        chosen, fastest, limit, n_candidates = _select(
            selector, ndp, {"H0": -50.0, "H1": -30.0, "H2": 10.0}
        )
        assert fastest == chosen == "H0"
        assert limit >= -50.0
        assert n_candidates == 1
        arm, _, _, _ = selector.select_index(ndp, np.asarray([-50.0, -30.0, 10.0]))
        assert ndp[arm].name == chosen

    def test_sequence_estimates_follow_catalog_order(self, ndp):
        arm, fastest, _, _ = TolerantSelector().select_index(ndp, [50.0, 40.0, 60.0])
        assert ndp[arm].name == ndp[fastest].name == "H1"

    def test_traded_runtime(self, ndp):
        selector = TolerantSelector(ToleranceConfig(seconds=30.0))
        estimates = {"H0": 120.0, "H1": 140.0, "H2": 100.0}
        chosen, fastest, _, _ = _select(selector, ndp, estimates)
        assert (fastest, chosen) == ("H2", "H0")
        assert estimates[chosen] - estimates[fastest] == pytest.approx(20.0)

    def test_wrong_length_sequence_rejected(self, ndp):
        with pytest.raises(ValueError, match="expected 3 estimates"):
            TolerantSelector().select_index(ndp, [1.0, 2.0])

    def test_non_finite_estimates_rejected(self, ndp):
        with pytest.raises(ValueError, match="finite"):
            TolerantSelector().select_index(ndp, [np.nan, 1.0, 2.0])

    def test_tie_breaks_deterministically(self, ndp):
        selector = TolerantSelector()
        estimates = {"H0": 100.0, "H1": 100.0, "H2": 100.0}
        assert _select(selector, ndp, estimates)[0] == _select(selector, ndp, estimates)[0] == "H0"

    def test_negative_estimates_allowed(self, ndp):
        """Linear models can extrapolate below zero early on; selection must cope."""
        selector = TolerantSelector(ToleranceConfig(ratio=0.1))
        chosen, fastest, _, _ = _select(selector, ndp, {"H0": -50.0, "H1": 10.0, "H2": 20.0})
        assert fastest == chosen == "H0"

    def test_zero_estimates(self, ndp):
        selector = TolerantSelector(ToleranceConfig(seconds=0.0))
        # All tie, most efficient wins.
        assert _select(selector, ndp, {"H0": 0.0, "H1": 0.0, "H2": 0.0})[0] == "H0"
