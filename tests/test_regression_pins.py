"""The offline regression fits behind Figures 3, 5, 6 and 8, pinned bit for bit.

The benchmarks assert each figure's claims with wide tolerances, so a change
that moves the fits' last bits would pass them.  These pins would not.  They
run each figure's own benchmark code, in its order and with its seeds, with
the two ensembles of Figures 5 and 8 at 10 models each (the benchmarks assert
the 100-model digests).  Floats are compared by ``float.hex``.

The values were captured before the offline baselines took the trusted
``predict_vector`` path, at 1 BLAS thread and at the default, which agreed.
Never re-capture them to absorb drift.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import ensemble_digest
from benchmarks.test_fig3_cycles_fit import _fit as fig3_fit
from benchmarks.test_fig5_bp3d_linreg import _run as fig5_run
from benchmarks.test_fig6_bp3d_area_fit import _baseline as fig6_baseline
from benchmarks.test_fig8_matmul_linreg import _run as fig8_run
from repro.data import build_bp3d_dataset, build_cycles_dataset, build_matmul_dataset

N_MODELS = 10

PINS = {
    # ensemble_digest(all features, area only), seeds 0 and 1.
    "fig5_ensembles": "a3a351e322cfd8dc4c58fe5b2373bd623f78295a95ea8ac17ec0cc9076d9ea2c",
    # ensemble_digest(full dataset, size >= 5000), seeds 0 and 1.
    "fig8_ensembles": "4d1bbfd1b74230a4d796be6a947b8cc6ce3b4b96af367adb927d5d6f5d7fb168",
    # Full-data fit on all BP3D features: (RMSE, R²).
    "fig5_full_fit": ("0x1.42c9b81c03742p+13", "0x1.d9833401ae556p-2"),
    # Full-data Cycles fit: (RMSE, R²) and each hardware's (w_num_tasks, b).
    "fig3_full_fit": ("0x1.e5cf0aeb6c845p+4", "0x1.ff71a281a5fddp-1"),
    "fig3_coefficients": {
        "H0": ("0x1.99a22ec0d6bf1p+2", "0x1.ae1649629108ep+5"),
        "H1": ("0x1.b515ca9b62e1dp+1", "0x1.0b7feab250472p+6"),
        "H2": ("0x1.444773393d291p+1", "0x1.c781e2457e713p+5"),
        "H3": ("0x1.005eb79f1fc5cp+1", "0x1.00d0a52d7f17ep+6"),
    },
    # Figure 6's area-only baseline: each hardware's (w_area, b).
    "fig6_coefficients": {
        "H0": ("0x1.e3a11ced2e43fp-7", "0x1.da96b8a5db49cp+13"),
        "H1": ("0x1.0a91455b9997bp-6", "0x1.a43c13f494068p+13"),
        "H2": ("0x1.044dbd347cdafp-6", "0x1.c588928852461p+13"),
    },
}


def _line(model):
    return (float(model.coefficients[0]).hex(), model.intercept.hex())


def regression_fits() -> dict:
    """Everything :data:`PINS` covers, computed from freshly built datasets."""
    bp3d, matmul, cycles = build_bp3d_dataset(), build_matmul_dataset(), build_cycles_dataset()
    all_features, area_only, full_fit = fig5_run(bp3d, N_MODELS)
    oracle, _ = fig3_fit(cycles)
    scores = oracle.score(cycles.frame)
    return {
        "fig5_ensembles": ensemble_digest(all_features, area_only),
        "fig8_ensembles": ensemble_digest(*fig8_run(matmul, N_MODELS)),
        "fig5_full_fit": (full_fit.reference_rmse.hex(), full_fit.reference_r2.hex()),
        "fig3_full_fit": (scores["rmse"].hex(), scores["r2"].hex()),
        "fig3_coefficients": {hw.name: _line(oracle.model_for(hw)) for hw in cycles.catalog},
        "fig6_coefficients": {name: _line(model) for name, model in fig6_baseline(bp3d).items()},
    }


@pytest.fixture(scope="module")
def fits():
    return regression_fits()


@pytest.mark.parametrize("name", sorted(PINS))
def test_matches_the_pin(fits, name):
    assert fits[name] == PINS[name]
