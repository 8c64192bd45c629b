"""Figure 5: RMSE and R² of 100 linear-regression recommenders on 25 BP3D samples.

The paper trains 100 offline linear-regression models, each on a random
25-sample subset of the 1316-run BP3D dataset, and reports the spread of their
RMSE and R² on the full data -- the point being that with so little data an
offline recommender is unreliable (average R² of only ~13 %).  The experiment
is run twice: with all features ("rmse_all"/"r2_all") and with the area
feature only ("rmse_area_only"/"r2_area_only").
"""

from benchmarks.conftest import ensemble_digest, print_report, scaled
from repro.baselines import FullFitOracle, train_regression_ensemble
from repro.evaluation.reporting import format_histogram, format_metric_table


def _run(bundle, n_models):
    all_features = train_regression_ensemble(
        bundle.frame,
        bundle.catalog,
        bundle.feature_names,
        n_models=n_models,
        n_samples=25,
        seed=0,
    )
    area_only = train_regression_ensemble(
        bundle.frame,
        bundle.catalog,
        ["area"],
        n_models=n_models,
        n_samples=25,
        seed=1,
    )
    full_fit = FullFitOracle(bundle.frame, bundle.catalog, bundle.feature_names)
    return all_features, area_only, full_fit


def test_fig5_bp3d_linear_regression_spread(benchmark, bp3d_bundle):
    n_models = scaled(100, 10)
    all_features, area_only, full_fit = benchmark.pedantic(
        _run, args=(bp3d_bundle, n_models), rounds=1, iterations=1
    )
    summary_all = all_features.summary()
    summary_area = area_only.summary()
    if n_models == 100:
        # Both ensembles' scores, bit for bit (tests/test_regression_pins.py
        # pins the 10-model runs).
        assert ensemble_digest(all_features, area_only) == (
            "33d233ff61026f8b4d15c8d2fac4b94fe60df88b8a148c23b5306c45b3f40c7a"
        )

    # 25-sample models are unreliable: mean R² is far below the full fit's,
    # and the spread between the best and worst model is wide.
    assert summary_all["r2_mean"] < 0.6
    assert summary_all["r2_mean"] < full_fit.reference_r2
    assert summary_all["rmse_mean"] > full_fit.reference_rmse
    assert summary_all["rmse_range"] > 0.1 * full_fit.reference_rmse

    # Using only `area` loses little: runtime is dominated by that feature,
    # so the area-only models are in the same league as the all-feature ones
    # (the paper plots the two side by side for this reason).
    assert summary_area["rmse_mean"] < 2.0 * summary_all["rmse_mean"]

    rows = [
        {"ensemble": "rmse_all", **{k: v for k, v in summary_all.items() if k.startswith("rmse")}},
        {"ensemble": "rmse_area_only", **{k: v for k, v in summary_area.items() if k.startswith("rmse")}},
    ]
    r2_rows = [
        {"ensemble": "r2_all", **{k: v for k, v in summary_all.items() if k.startswith("r2")}},
        {"ensemble": "r2_area_only", **{k: v for k, v in summary_area.items() if k.startswith("r2")}},
    ]
    body = format_metric_table(rows) + "\n\n" + format_metric_table(r2_rows)
    body += "\n\n" + format_histogram(all_features.rmse_scores, bins=8, title="RMSE distribution (all features)")
    body += (
        f"\n\nfull-fit reference: rmse={full_fit.reference_rmse:.1f}s, r2={full_fit.reference_r2:.3f}"
        f"\nmodels per ensemble: {n_models}, training subset size: 25"
    )
    print_report("Figure 5 — linear regressions on 25 BP3D samples (RMSE and R² spread)", body)
