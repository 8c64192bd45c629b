"""Plain-text rendering of result series and metric tables.

The paper communicates its results as figures; in a terminal-only
reproduction the equivalent artefact is a formatted table of the same series
(round, mean RMSE, spread, accuracy) plus the reference lines.  Benchmarks
print these tables so ``pytest benchmarks/ --benchmark-only -s`` regenerates
every figure's numbers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.evaluation.simulation import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (contention imports nothing back)
    from repro.evaluation.contention import ContentionResult
    from repro.evaluation.engine import ReplicationSummary

__all__ = [
    "format_series",
    "format_metric_table",
    "format_summary",
    "format_histogram",
    "format_contention_report",
    "format_kernel_profile",
    "format_replication_bands",
]


def format_kernel_profile(profile: Mapping[str, float]) -> str:
    """Render a simulator kernel wall-time breakdown (``--profile`` output).

    ``profile`` is :meth:`~repro.cluster.simulator.KernelProfile.as_dict`:
    seconds spent in progress re-integration, scheduling passes and
    placement scoring, plus the event/reschedule counters that give the
    seconds a denominator.
    """
    reint = float(profile.get("reintegration_seconds", 0.0))
    sched = float(profile.get("scheduling_seconds", 0.0))
    place = float(profile.get("placement_seconds", 0.0))
    lines = ["kernel profile (wall seconds inside the simulator's hot paths)"]
    lines.append(
        f"  re-integration  {reint:>10.4f}s over "
        f"{int(profile.get('reschedule_calls', 0))} reschedules "
        f"({int(profile.get('pods_rescheduled', 0))} pod rate changes)"
    )
    lines.append(
        f"  scheduling      {sched:>10.4f}s over "
        f"{int(profile.get('schedule_passes', 0))} passes (includes placement)"
    )
    lines.append(
        f"  placement       {place:>10.4f}s over "
        f"{int(profile.get('placement_calls', 0))} decisions"
    )
    lines.append(f"  events processed {int(profile.get('events_processed', 0))}")
    lines.append(
        f"  event heap      {int(profile.get('events_pushed', 0))} pushed / "
        f"{int(profile.get('events_popped', 0))} handled / "
        f"{int(profile.get('events_skipped', 0))} superseded (cancelled frontier)"
    )
    return "\n".join(lines)


def _format_cell(value, width: int = 12, precision: int = 4) -> str:
    if isinstance(value, (int, np.integer)):
        return f"{value:>{width}d}"
    if isinstance(value, (float, np.floating)):
        if value != 0 and (abs(value) >= 1e6 or abs(value) < 1e-3):
            return f"{value:>{width}.4g}"
        return f"{value:>{width}.{precision}f}"
    return f"{str(value):>{width}}"


def format_metric_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render a list of row dictionaries as a fixed-width text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    header = " ".join(f"{name:>12}" for name in columns)
    lines = [title, header, "-" * len(header)] if title else [header, "-" * len(header)]
    for row in rows:
        lines.append(" ".join(_format_cell(row.get(name, "")) for name in columns))
    return "\n".join(lines)


def format_series(
    result: SimulationResult,
    every: int = 5,
    title: str = "",
) -> str:
    """Render a simulation result as the per-round table the figures plot.

    ``every`` controls row density (every N-th round plus the final round).
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    rounds = result.rounds
    keep = [i for i in range(len(rounds)) if (i + 1) % every == 0 or i == 0 or i == len(rounds) - 1]
    rows = []
    mean_rmse, std_rmse = result.mean_rmse(), result.std_rmse()
    mean_acc, std_acc = result.mean_accuracy(), result.std_accuracy()
    for i in keep:
        rows.append(
            {
                "round": int(rounds[i]),
                "rmse_mean": float(mean_rmse[i]),
                "rmse_std": float(std_rmse[i]),
                "acc_mean": float(mean_acc[i]),
                "acc_std": float(std_acc[i]),
            }
        )
    table = format_metric_table(rows, title=title)
    footer = (
        f"\nreference (full fit): rmse={result.reference_rmse:.4f} "
        f"accuracy={result.reference_accuracy:.4f} | random accuracy={result.random_accuracy:.4f}"
    )
    return table + footer


def format_summary(summary: Mapping[str, float], title: str = "") -> str:
    """Render a ``{name: value}`` summary as aligned key/value lines."""
    width = max((len(k) for k in summary), default=0)
    lines = [title] if title else []
    for key, value in summary.items():
        if isinstance(value, (float, np.floating)):
            lines.append(f"{key:<{width}} : {value:.6g}")
        else:
            lines.append(f"{key:<{width}} : {value}")
    return "\n".join(lines)


def format_contention_report(
    result: "ContentionResult",
    replications: Optional["ReplicationSummary"] = None,
) -> str:
    """Render a contention scenario's queue-aware accounting as text.

    One row per tenant (accuracy, queueing, regret), followed by the
    scenario-level summary: makespan, queue-delay distribution, occupancy
    cost in resource-seconds, and the queue-inclusive regret that charges
    waiting time against the contention-free oracle.  A placement line names
    the node-choice policy the run's scheduler used, and a reward-shaping
    line appears when any tenant trains on queue- or slowdown-penalised
    targets.  Pass a :class:`~repro.evaluation.engine.ReplicationSummary`
    to append per-round mean ± 95% CI confidence bands aggregated across
    scenario replications.
    """
    rows = []
    for outcome in result.tenants.values():
        summary = outcome.summary()
        rows.append(
            {
                "tenant": outcome.tenant,
                "workflows": int(summary["rounds"]),
                "accuracy": summary["accuracy"],
                "explore": summary["exploration_fraction"],
                "queue_s": summary["total_queue_seconds"],
                "slowdown": summary["mean_slowdown"],
                "regret_s": summary["cumulative_regret"],
                "q_regret_s": summary["queue_inclusive_regret"],
            }
        )
    table = format_metric_table(
        rows, title=f"scenario {result.scenario_name!r}: {result.description}"
    )
    scenario_summary = result.summary()
    summary = format_summary(scenario_summary, title="scenario summary")
    report = f"{table}\n\n{summary}"
    report += f"\nplacement: {result.placement} (ordering and node choice are independent axes)"
    shaped = {
        tenant: mode
        for tenant, mode in result.reward_modes.items()
        if mode != "runtime"
    }
    if shaped:
        by_mode: Dict[str, List[str]] = {}
        for tenant, mode in shaped.items():
            by_mode.setdefault(mode, []).append(tenant)
        parts = [
            f"{mode} ({', '.join(sorted(tenants))})" for mode, tenants in sorted(by_mode.items())
        ]
        report += (
            "\nreward shaping: "
            + "; ".join(parts)
            + " -- these tenants train on penalised targets, not raw runtimes"
        )
    if scenario_summary.get("interference_seconds", 0.0) > 0.0:
        report += (
            "\ninterference: mean slowdown "
            f"{scenario_summary['mean_slowdown']:.3f}x, "
            f"max {scenario_summary['max_slowdown']:.3f}x, "
            f"co-residents added {scenario_summary['interference_seconds']:.1f}s "
            "over the contention-free plan"
        )
    if result.scale_events:
        kinds: Dict[str, int] = {}
        for event in result.scale_events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        actions = ", ".join(f"{kinds[k]} {k}" for k in sorted(kinds))
        report += f"\nautoscaler: {actions}"
    if replications is not None:
        report += "\n\n" + format_replication_bands(replications)
    return report


def format_replication_bands(
    replications: "ReplicationSummary", every: int = 8
) -> str:
    """Render a replication summary as mean ± std headlines plus band rows.

    The headline block reports each scalar as ``mean ± std`` across
    replications; the table samples every ``every``-th completion (plus the
    first and last) of the cumulative queue-inclusive-regret and running
    mean-slowdown curves with their 95% confidence bands.
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    lines = [
        f"replications: {replications.n_replications} seeds "
        f"({replications.seeds[0]}..{replications.seeds[-1]}), "
        f"{replications.n_rounds} workflows each"
    ]
    for key, (mean, std) in replications.summary().items():
        lines.append(f"{key:<30} : {mean:.6g} ± {std:.6g}")
    q_band = replications.band("queue_regret")
    s_band = replications.band("slowdown")
    n = replications.n_rounds
    keep = [i for i in range(n) if (i + 1) % every == 0 or i == 0 or i == n - 1]
    rows = []
    for i in keep:
        rows.append(
            {
                "round": i + 1,
                "q_regret_mean": float(q_band["mean"][i]),
                "q_regret_lo": float(q_band["lo"][i]),
                "q_regret_hi": float(q_band["hi"][i]),
                "slowdown_mean": float(s_band["mean"][i]),
                "slowdown_lo": float(s_band["lo"][i]),
                "slowdown_hi": float(s_band["hi"][i]),
            }
        )
    table = format_metric_table(
        rows,
        title="per-round mean and 95% CI across replications "
        "(cumulative queue-inclusive regret, running mean slowdown)",
    )
    return "\n".join(lines) + "\n\n" + table


def format_histogram(
    values: Sequence[float],
    bins: int = 10,
    width: int = 40,
    title: str = "",
) -> str:
    """A small ASCII histogram (used for the RMSE/R² distributions of Figures 5 and 8)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("histogram requires at least one value")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(arr, bins=bins)
    peak = counts.max() if counts.max() > 0 else 1
    lines = [title] if title else []
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"[{lo:>10.4g}, {hi:>10.4g}) {count:>5d} {bar}")
    return "\n".join(lines)
