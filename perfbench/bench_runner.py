"""Measure one workload: set-up, timed passes, checks, and the traced run.

``measure`` returns the result line (``correct``, ``attempted``,
``failed``, ``metrics``) and a report with everything else: the run
manifest, the workload-specific metrics (throughput in its own unit,
per-call latency percentiles, quality, failed fraction) and the checks.

End-to-end metrics come from untraced passes, except ``setup_s``, which
comes from set-ups in fresh interpreters spread over the same window (see
``run.py``).  The traced mode
alternates an untraced and a traced pass of the same inputs until the time is
up; the difference of their mean wall times is the tracing overhead.
"""

from __future__ import annotations

import collections
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import bench_trace
from bench_workloads import REPO_ROOT

#: Fewest timed passes of a run, however short ``seconds`` is.
MIN_PASSES = 3
#: Cold set-ups sampled per untraced run, spread evenly over its window.
COLD_SETUPS = 8
clock = time.perf_counter


def _git_commit() -> Optional[str]:
    if not (REPO_ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of every ``src`` Python file: identifies the code in any checkout."""
    digest = hashlib.sha256()
    src = REPO_ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(workload, seed: int) -> Dict[str, object]:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": workload.name,
        "seed": seed,
        "scale": workload.scale(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {
            var: value
            for var, value in sorted(os.environ.items())
            if var.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))
        },
    }


def _percentiles(samples: List[float]) -> Dict[str, float]:
    """Median and the highest of p99/p90 with at least ten samples beyond it."""
    values = np.asarray(samples) * 1e6
    out = {"p50_us": float(np.percentile(values, 50)), "n": len(values)}
    for tail in (99, 90):
        if len(values) * (100 - tail) / 100 >= 10:
            out[f"p{tail}_us"] = float(np.percentile(values, tail))
            break
    return out


def set_up(workload, seed: int):
    """Build the inputs and run one warm-up pass; return them and the set-up time."""
    start = clock()
    state = workload.setup(seed)
    output = workload.run(state)
    elapsed = clock() - start
    return state, workload.inspect(state, output), elapsed


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Ledger:
    """Attempted/failed operations and correctness problems of one run."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = list(reference.problems)

    def record(self, inspection, label: str) -> None:
        self.attempted += inspection.attempted
        self.failed += inspection.attempted - inspection.completed
        self.problems.extend(inspection.problems)
        if inspection.digest != self.reference.digest:
            self.problems.append(f"{label} pass output differs from the warm-up pass")

    def raised(self, label: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += self.reference.attempted
        self.failed += self.reference.attempted
        self.problems.append(f"{label} pass raised; traceback on stderr")


def _result(ledger: _Ledger, metrics: Dict[str, Tuple[float, str]]) -> Dict[str, object]:
    return {
        "correct": not ledger.problems,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    cold_setup: Optional[Callable[[], float]] = None,
    import_s: float = 0.0,
    trace_dir: Optional[Path] = None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Run one workload for ``seconds``; return ``(result, report)``.

    ``cold_setup()`` returns the set-up time of a fresh interpreter; without
    it, ``setup_s`` is ``import_s`` plus this process's own set-up.
    """
    if trace:
        return _measure_traced(workload, seed, seconds, trace_dir)
    state, reference, warm_setup_s = set_up(workload, seed)
    ledger = _Ledger(reference)
    pass_s: List[float] = []
    rates: List[float] = []
    latency: Dict[str, List[Dict[str, float]]] = collections.defaultdict(list)
    setup_samples: List[float] = []
    begin = clock()
    deadline = begin + seconds
    # Spread over the window, the cold set-ups meet the same phases of host
    # load as the passes do.
    setup_due = [begin + seconds * i / COLD_SETUPS for i in range(COLD_SETUPS)]
    if cold_setup is None:
        setup_due = []
    while clock() < deadline or len(pass_s) < MIN_PASSES:
        while setup_due and clock() >= setup_due[0]:
            setup_due.pop(0)
            setup_samples.append(cold_setup())
        start = clock()
        try:
            output = workload.run(state)
        except Exception:
            ledger.raised("timed")
            break
        elapsed = clock() - start
        inspection = workload.inspect(state, output)
        ledger.record(inspection, "timed")
        pass_s.append(elapsed)
        rates.append(inspection.completed / elapsed)
        for name, values in inspection.samples.items():
            latency[name].append(_percentiles(values))
    setup_samples.extend(cold_setup() for _ in setup_due)
    if not setup_samples:
        setup_samples.append(import_s + warm_setup_s)
    ledger.problems.extend(workload.reference_problems())

    # On a shared host, neighbouring load only ever adds time, in phases of
    # seconds to minutes; the fastest pass (and set-up) is the least disturbed.
    work_per_s = max(rates, default=0.0)
    metrics = {
        "setup_s": (min(setup_samples), "s"),
        "work_per_s": (work_per_s, "1/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "accuracy": reference.quality["accuracy"],
    }
    detail = {
        f"{workload.unit}_per_s": (work_per_s, "1/s"),
        "failed_frac": (ledger.failed / max(ledger.attempted, 1), "fraction"),
        "import_s": (import_s, "s"),
        "warm_setup_s": (warm_setup_s, "s"),
        "pass_s_median": (statistics.median(pass_s) if pass_s else 0.0, "s"),
    }
    detail.update(reference.quality)
    # Percentiles are taken per pass and reported as their median over the
    # passes: pooling every pass's samples would grow memory with the pass count.
    for call, per_pass in latency.items():
        for key in per_pass[0]:
            value = statistics.median(p[key] for p in per_pass)
            detail[f"{call}_{key}"] = (value, "count" if key == "n" else "us")
    report = {
        "manifest": manifest(workload, seed),
        "pass_s": pass_s,
        "setup_samples_s": setup_samples,
        "detail": {name: {"value": v, "unit": u} for name, (v, u) in detail.items()},
        "problems": ledger.problems,
    }
    return _result(ledger, metrics), report


def _measure_traced(workload, seed: int, seconds: float, trace_dir: Optional[Path]):
    state, reference, _ = set_up(workload, seed)
    ledger = _Ledger(reference)
    tracer = bench_trace.Tracer()
    untraced_s: List[float] = []
    totals: Dict[str, float] = collections.defaultdict(float)
    traced = 0
    deadline = clock() + seconds
    while clock() < deadline or traced < 1:
        start = clock()
        try:
            output = workload.run(state)
        except Exception:
            ledger.raised("untraced")
            break
        untraced_s.append(clock() - start)
        ledger.record(workload.inspect(state, output), "untraced")

        tracer.install()
        try:
            tracer.begin_pass()
            output = workload.run(state)
            tracer.end_pass()
        except Exception:
            ledger.raised("traced")
            break
        finally:
            leftover = tracer.uninstall()
        if leftover:
            ledger.problems.append(f"wrappers left installed after tracing: {leftover}")
        inspection = workload.inspect(state, output)
        ledger.record(inspection, "traced")
        ledger.problems.extend(tracer.nesting_problems())
        metrics = tracer.pass_metrics()
        metrics["cluster.wasted_frac"] = inspection.layer_ratios.get("cluster.wasted_frac", 0.0)
        if traced == 0:
            first_spans = tracer.spans()
        for name, value in metrics.items():
            totals[name] += value
        traced += 1

    ledger.problems.extend(workload.reference_problems())
    if traced and trace_dir is not None:
        bench_trace.write_spans(first_spans, trace_dir / f"{workload.name}-seed{seed}.jsonl")
    averages = {name: value / max(traced, 1) for name, value in totals.items()}
    averages["trace.untraced_s"] = statistics.mean(untraced_s) if untraced_s else 0.0
    averages["trace.overhead_s"] = averages.get("trace.wall_s", 0.0) - averages["trace.untraced_s"]
    metrics = {
        name: (averages.get(name, 0.0), unit)
        for name, unit, _, _ in bench_trace.per_layer_metrics()
    }
    overhead_frac = (
        averages["trace.overhead_s"] / averages["trace.untraced_s"]
        if averages["trace.untraced_s"]
        else 0.0
    )
    report = {
        "manifest": manifest(workload, seed),
        "traced_passes": traced,
        "tracing_overhead_frac": overhead_frac,
        "problems": ledger.problems,
    }
    return _result(ledger, metrics), report
