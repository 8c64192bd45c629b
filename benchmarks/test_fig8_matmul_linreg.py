"""Figure 8: RMSE and R² of 100 linear-regression models on matrix-multiplication data.

The offline linear-regression recommender is trained 100 times on random
subsets of (a) the full 2520-run matmul dataset and (b) the truncated
``size >= 5000`` dataset.  Unlike BP3D, matmul runtime is strongly predictable
from the matrix size, so the paper reports high R² (~88 % on average) for both
variants; this benchmark reproduces that contrast with Figure 5.
"""

from benchmarks.conftest import ensemble_digest, print_report, scaled
from repro.baselines import train_regression_ensemble
from repro.data.splits import truncate_by_threshold
from repro.evaluation.reporting import format_histogram, format_metric_table


def _run(bundle, n_models):
    features = ["size"]
    full = train_regression_ensemble(
        bundle.frame, bundle.catalog, features, n_models=n_models, n_samples=25, seed=0
    )
    truncated_frame = truncate_by_threshold(bundle.frame, "size", 5000, keep="above")
    truncated = train_regression_ensemble(
        truncated_frame, bundle.catalog, features, n_models=n_models, n_samples=25, seed=1
    )
    return full, truncated


def test_fig8_matmul_linear_regression_spread(benchmark, matmul_bundle):
    n_models = scaled(100, 10)
    full, truncated = benchmark.pedantic(
        _run, args=(matmul_bundle, n_models), rounds=1, iterations=1
    )
    summary_full = full.summary()
    summary_trunc = truncated.summary()
    if n_models == 100:
        # Both ensembles' scores, bit for bit (tests/test_regression_pins.py
        # pins the 10-model runs).
        assert ensemble_digest(full, truncated) == (
            "df7ef562438a270b3b30974772c88e5ffeb5b3e8a173c0a3b1a42a1a87f764d4"
        )

    # Matmul runtime is highly predictable from size -- in stark contrast to
    # the BP3D ensembles of Figure 5.  On the truncated (size >= 5000) data the
    # mean R² matches the paper's ~88 %; on the full dataset our 25-sample
    # models extrapolate a locally-linear fit of the (cubic) size-runtime
    # curve from mostly-small matrices, so R² is lower than the paper's while
    # remaining far above the BP3D level (see EXPERIMENTS.md).
    assert summary_trunc["r2_mean"] > 0.7
    assert summary_full["r2_mean"] > 0.1
    assert summary_trunc["r2_mean"] > summary_full["r2_mean"]
    # And there is a visible spread across the 25-sample models.
    assert summary_full["rmse_range"] > 0
    assert summary_trunc["rmse_range"] > 0
    # Training such tiny models is fast (the paper quotes ~1.4-2.4 s on their
    # setup; here we only require that it is far below a second per model).
    assert summary_full["train_seconds_mean"] < 1.0

    rows = [
        {"ensemble": "rmse_all", **{k: v for k, v in summary_full.items() if k.startswith("rmse")}},
        {"ensemble": "rmse_truncated", **{k: v for k, v in summary_trunc.items() if k.startswith("rmse")}},
    ]
    r2_rows = [
        {"ensemble": "r2_all", **{k: v for k, v in summary_full.items() if k.startswith("r2")}},
        {"ensemble": "r2_truncated", **{k: v for k, v in summary_trunc.items() if k.startswith("r2")}},
    ]
    body = format_metric_table(rows) + "\n\n" + format_metric_table(r2_rows)
    body += "\n\n" + format_histogram(full.r2_scores, bins=8, title="R² distribution (full dataset)")
    body += f"\n\nmodels per ensemble: {n_models}, training subset size: 25"
    print_report("Figure 8 — linear regressions on matrix-multiplication data (RMSE and R²)", body)
