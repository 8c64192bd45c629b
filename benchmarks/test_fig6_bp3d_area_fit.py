"""Figure 6: contextual bandit vs. baseline on the `area` feature, per hardware.

Figure 6 plots, for each NDP hardware setting, the BP3D runtime against the
burn-unit area, overlaying the full-data fit ("Actual") with the fit learned
by the bandit after 100 simulations of 50 rounds ("Predicted").  This
benchmark runs the same configuration and compares the two fits at
representative areas on every hardware.
"""

import numpy as np

from benchmarks.conftest import print_report, scaled
from repro.core import BanditWare
from repro.core.models import LeastSquaresModel
from repro.evaluation import SimulationConfig, format_metric_table
from repro.utils.rng import SeedSequencePool


def _baseline(bundle):
    """The "Actual" fit: per-hardware least squares on the full dataset, area only."""
    frame = bundle.frame
    area = frame["area"].to_numpy(float).reshape(-1, 1)
    runtimes = frame["runtime_seconds"].to_numpy(float)
    hardware = frame["hardware"].values
    baseline = {}
    for hw in bundle.catalog:
        mask = np.asarray([str(h) == hw.name for h in hardware])
        baseline[hw.name] = LeastSquaresModel(1).fit(area[mask], runtimes[mask])
    return baseline


def _run(bundle, n_simulations, n_rounds):
    catalog = bundle.catalog
    workload = bundle.workload
    baseline = _baseline(bundle)

    # Bandit ("Predicted"): average the learned per-arm coefficients over
    # n_simulations independent online runs of n_rounds rounds each.
    pool = SeedSequencePool(0)
    coefficient_sums = {hw.name: np.zeros(2) for hw in catalog}
    for sim in range(n_simulations):
        rng = pool.generator(sim)
        bandit = BanditWare(catalog=catalog, feature_names=["area"], seed=rng)
        for _ in range(n_rounds):
            features = workload.sample_features(rng)
            rec = bandit.recommend({"area": features["area"]})
            runtime = workload.observed_runtime(features, rec.hardware, rng)
            bandit.observe({"area": features["area"]}, rec.hardware, runtime)
        for hw, model in zip(catalog, bandit.models):
            coefficient_sums[hw.name] += np.array([model.coefficients[0], model.intercept])
    learned = {name: total / n_simulations for name, total in coefficient_sums.items()}
    return baseline, learned


def test_fig6_bandit_vs_baseline_area_fit(benchmark, bp3d_bundle):
    n_simulations = scaled(100, 5)
    n_rounds = scaled(50, 15)
    baseline, learned = benchmark.pedantic(
        _run, args=(bp3d_bundle, n_simulations, n_rounds), rounds=1, iterations=1
    )

    probe_areas = np.array([1.0e6, 1.5e6, 2.0e6, 2.5e6])
    rows = []
    for hw in bp3d_bundle.catalog:
        w, b = learned[hw.name]
        for area in probe_areas:
            actual = baseline[hw.name].predict([area])
            predicted = w * area + b
            rows.append(
                {
                    "hardware": hw.name,
                    "area_m2": float(area),
                    "actual_fit_s": actual,
                    "bandit_fit_s": predicted,
                    "rel_err": abs(predicted - actual) / max(abs(actual), 1.0),
                }
            )

    # The paper observes that the bandit's fit "closely matches the actual
    # values (baseline), although the noise is slightly off": require the
    # average relative deviation across hardware/areas to stay moderate.
    mean_rel_err = float(np.mean([r["rel_err"] for r in rows]))
    assert mean_rel_err < 0.35
    # Runtimes are in the tens-of-thousands-of-seconds range of Figure 6.
    assert max(r["actual_fit_s"] for r in rows) > 3.0e4

    body = format_metric_table(rows, columns=["hardware", "area_m2", "actual_fit_s", "bandit_fit_s", "rel_err"])
    body += f"\n\nmean relative deviation bandit vs baseline: {mean_rel_err * 100:.1f}%"
    body += f"\n(n_sim={n_simulations}, n_rounds={n_rounds}, feature=area)"
    print_report("Figure 6 — contextual bandit vs baseline fit on the area feature", body)
