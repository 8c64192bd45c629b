"""The benchmark's four workloads, driven through public ``repro`` entry points.

Each workload has the same shape:

* ``setup(seed)`` builds the inputs from the workload seed (untimed; the
  runner times it as set-up together with one warm-up pass);
* ``run(state)`` is one timed pass -- the only code inside the timer;
* ``inspect(state, output)`` digests and checks one pass's output outside
  the timer: completed-vs-attempted counts, an output digest (every pass of
  one seed must reproduce it), quality metrics and any correctness problems.

Every pass of one seed replays exactly the same inputs, so a pass is
deterministic and the quality metrics are exact for a seed.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.evaluation import build_experiment, build_scenario, engine, run_scenario, service_load
from repro.evaluation.contention import scenario_fingerprint

REPO_ROOT = Path(__file__).resolve().parent.parent
FRONTIER_REFERENCE = REPO_ROOT / "benchmarks" / "frontier_parity_reference.json"


@dataclasses.dataclass
class Inspection:
    """What one pass produced, judged outside the timed region."""

    attempted: int
    completed: int
    digest: str
    #: Quality metrics: name -> (value, unit); exact for a seed.
    quality: Dict[str, Tuple[float, str]]
    #: Per-call host latencies in seconds, by call name (service-zipf only).
    samples: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    #: Ratios the per-layer report reads from the output (name -> value).
    layer_ratios: Dict[str, float] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _reference_problems(scenario: str) -> List[str]:
    """Compare the seed-0, x1 fingerprint of ``scenario`` with the stored pin."""
    reference = json.loads(FRONTIER_REFERENCE.read_text())
    expected = reference["scenarios"][scenario]["first-fit"]
    # A JSON round trip gives the stored and the fresh fingerprint the same
    # types (lists, not tuples); floats round-trip exactly.
    actual = json.loads(json.dumps(scenario_fingerprint(scenario, seed=0)))
    if actual != expected:
        differing = sorted(k for k in expected if actual.get(k) != expected[k])
        return [f"{scenario} seed-0 fingerprint differs from the reference in {differing}"]
    return []


# --------------------------------------------------------------------- #
# fig7-bp3d
# --------------------------------------------------------------------- #
class Fig7BP3D:
    """The paper's Figure 7 protocol: BurnPro3D, all features, replicated."""

    name = "fig7-bp3d"
    unit = "rounds"

    def __init__(self, n_simulations: Optional[int] = None, n_rounds: Optional[int] = None):
        # ``None`` keeps the paper's budget (100 simulations x 50 rounds).
        self.n_simulations = n_simulations
        self.n_rounds = n_rounds

    def scale(self) -> Dict[str, object]:
        return {"n_simulations": self.n_simulations or 100, "n_rounds": self.n_rounds or 50}

    def setup(self, seed: int):
        definition = build_experiment(
            "bp3d_all_features",
            n_simulations=self.n_simulations,
            n_rounds=self.n_rounds,
            seed=seed,
            n_workers=1,
        )
        return definition.simulation()

    def run(self, simulation):
        return simulation.run()

    def inspect(self, simulation, result) -> Inspection:
        cfg = simulation.config
        attempted = cfg.n_simulations * cfg.n_rounds
        problems = []
        if result.rmse.shape != (cfg.n_simulations, cfg.n_rounds):
            problems.append(f"rmse series has shape {result.rmse.shape}")
        if not (np.all(np.isfinite(result.rmse)) and np.all(np.isfinite(result.accuracy))):
            problems.append("non-finite rmse or accuracy in the series")
        completed = result.rmse.size if not problems else 0
        digest = hashlib.sha256(result.rmse.tobytes() + result.accuracy.tobytes()).hexdigest()
        final = result.n_rounds
        return Inspection(
            attempted=attempted,
            completed=completed,
            digest=digest,
            quality={
                "accuracy": (result.accuracy_at(final)[0], "fraction"),
                "final_rmse": (result.rmse_at(final)[0], "s"),
            },
            problems=problems,
        )

    def reference_problems(self) -> List[str]:
        return []


# --------------------------------------------------------------------- #
# Contention workloads
# --------------------------------------------------------------------- #
def _contention_inspection(results, attempted: int) -> Inspection:
    """Digest, exactly-once check and pooled ratios over scenario results."""
    problems = []
    completed = 0
    parts = []
    wasted = total = 0.0
    for result in results:
        # Every submitted workflow completes exactly once: each tenant's
        # completed rounds are 0..n-1 with no gaps or repeats.
        for tenant, outcome in result.tenants.items():
            rounds = sorted(r["round"] for r in result.rows if r["tenant"] == tenant)
            if rounds != list(range(len(outcome.decisions))):
                problems.append(
                    f"{result.scenario_name}: tenant {tenant} submitted "
                    f"{len(outcome.decisions)} workflows but completed rounds {rounds[:5]}..."
                )
        completed += len(result.rows)
        wasted += result.wasted_occupancy_cost
        total += result.total_occupancy_cost
        decisions = {t: o.decisions for t, o in sorted(result.tenants.items())}
        parts.append(json.dumps([result.rows, decisions, result.summary()], sort_keys=True))
    if completed != attempted:
        problems.append(f"{attempted} workflows submitted but {completed} completed")
    return Inspection(
        attempted=attempted,
        completed=completed,
        digest=_sha256("\n".join(parts)),
        quality={},
        layer_ratios={"cluster.wasted_frac": wasted / total if total else 0.0},
        problems=problems,
    )


class InterferenceSweep:
    """``interference-heavy`` at x1, replicated over R consecutive seeds."""

    name = "interference-sweep"
    unit = "workflows"
    scenario = "interference-heavy"

    def __init__(self, replications: int = 32):
        self.replications = replications

    def scale(self) -> Dict[str, object]:
        return {"scenario": self.scenario, "replications": self.replications, "x": 1}

    def setup(self, seed: int):
        # Seeds of different workload seeds never overlap: seed s replicates
        # scenario seeds s*R .. s*R + R - 1.
        return build_scenario(self.scenario, seed=seed * self.replications)

    def run(self, scenario):
        return engine.run_scenario_replications(scenario, self.replications, n_workers=1)

    def inspect(self, scenario, summary) -> Inspection:
        per_replication = sum(t.n_workflows for t in scenario.tenants)
        inspection = _contention_inspection(
            summary.results, per_replication * self.replications
        )
        headline = summary.summary()
        inspection.quality = {
            "accuracy": (headline["accuracy"][0], "fraction"),
            "mean_slowdown": (headline["mean_slowdown"][0], "x"),
        }
        return inspection

    def reference_problems(self) -> List[str]:
        return _reference_problems(self.scenario)


class PriorityBacklog:
    """``priority-tiers`` with every tenant's workflow count scaled up."""

    name = "priority-backlog-x32"
    unit = "workflows"
    scenario = "priority-tiers"

    def __init__(self, factor: int = 32):
        self.factor = factor

    def scale(self) -> Dict[str, object]:
        return {"scenario": self.scenario, "x": self.factor}

    def setup(self, seed: int):
        scenario = build_scenario(self.scenario, seed=seed)
        return dataclasses.replace(
            scenario,
            tenants=tuple(
                dataclasses.replace(t, n_workflows=t.n_workflows * self.factor)
                for t in scenario.tenants
            ),
        )

    def run(self, scenario):
        return run_scenario(scenario)

    def inspect(self, scenario, result) -> Inspection:
        attempted = sum(t.n_workflows for t in scenario.tenants)
        inspection = _contention_inspection([result], attempted)
        headline = result.summary()
        inspection.quality = {
            "accuracy": (headline["accuracy"], "fraction"),
            "mean_queue_s": (headline["mean_queue_seconds"], "s"),
        }
        return inspection

    def reference_problems(self) -> List[str]:
        return _reference_problems(self.scenario)


# --------------------------------------------------------------------- #
# service-zipf
# --------------------------------------------------------------------- #
@dataclasses.dataclass
class _ServiceInputs:
    seed: int
    config: object
    workloads: Dict[str, object]
    #: The request stream: (application, features) in send order.
    requests: List[Tuple[str, Dict[str, float]]]


@dataclasses.dataclass
class _ServiceOutput:
    service: object
    tickets: List[object]
    submit_s: List[float]
    complete_s: List[float]


class ServiceZipf:
    """A one-caller closed loop on a 32-app, 4-shard service, Zipf(0.9) mix.

    The caller submits one workflow per request and completes the oldest
    pending ticket whenever ``window`` are pending, then drains the rest.
    """

    name = "service-zipf"
    unit = "requests"
    n_apps = 32
    n_shards = 4
    zipf_exponent = 0.9
    window = 64

    def __init__(self, n_requests: int = 4096):
        self.n_requests = n_requests

    def scale(self) -> Dict[str, object]:
        return {
            "n_requests": self.n_requests,
            "n_apps": self.n_apps,
            "n_shards": self.n_shards,
            "zipf_exponent": self.zipf_exponent,
            "window": self.window,
        }

    def setup(self, seed: int) -> _ServiceInputs:
        config = service_load.ServiceLoadConfig(
            n_apps=self.n_apps,
            n_shards=self.n_shards,
            zipf_exponent=self.zipf_exponent,
            seed=seed,
        )
        _, workloads = service_load.build_load_service(config)
        apps = list(workloads)
        weights = service_load.ZipfianAppMix(self.n_apps, self.zipf_exponent).weights()
        app_rng = np.random.default_rng([seed, 1])
        feature_rng = np.random.default_rng([seed, 2])
        chosen = app_rng.choice(self.n_apps, size=self.n_requests, p=weights)
        requests = [
            (apps[i], workloads[apps[i]].sample_features(feature_rng)) for i in chosen
        ]
        return _ServiceInputs(seed=seed, config=config, workloads=workloads, requests=requests)

    def run(self, inputs: _ServiceInputs) -> _ServiceOutput:
        # Looked up on the module on every pass so a traced pass sees the
        # wrapped service factory.
        service, _ = service_load.build_load_service(inputs.config)
        workloads = inputs.workloads
        runtime_rng = np.random.default_rng([inputs.seed, 3])
        clock = time.perf_counter
        submit_s: List[float] = []
        complete_s: List[float] = []
        tickets = []
        pending = collections.deque()

        def complete_oldest() -> None:
            ticket = pending.popleft()
            runtime = workloads[ticket.application].observed_runtime(
                ticket.features, ticket.recommendation.hardware, runtime_rng
            )
            start = clock()
            service.complete_workflow(ticket.ticket_id, runtime)
            complete_s.append(clock() - start)

        for application, features in inputs.requests:
            start = clock()
            ticket = service.submit_workflow(application, features)
            submit_s.append(clock() - start)
            tickets.append(ticket)
            pending.append(ticket)
            if len(pending) == self.window:
                complete_oldest()
        while pending:
            complete_oldest()
        return _ServiceOutput(service, tickets, submit_s, complete_s)

    def inspect(self, inputs: _ServiceInputs, output: _ServiceOutput) -> Inspection:
        tickets = output.tickets
        problems = []
        completed = sum(1 for t in tickets if t.completed)
        if len(output.complete_s) != len(tickets) or output.service.pending_tickets():
            problems.append(
                f"{len(tickets)} tickets submitted, {len(output.complete_s)} completion "
                f"calls, {len(output.service.pending_tickets())} still pending"
            )
        catalog = output.service.catalog
        correct = sum(
            1
            for t in tickets
            if t.recommendation.hardware.name
            == inputs.workloads[t.application].best_hardware(t.features, catalog).name
        )
        stream = "\n".join(
            f"{t.ticket_id}|{t.application}|{t.recommendation.hardware.name}|"
            f"{t.recommendation.explored}|{t.observed_runtime!r}"
            for t in tickets
        )
        return Inspection(
            attempted=len(inputs.requests),
            completed=completed,
            digest=_sha256(stream),
            quality={"accuracy": (correct / len(tickets), "fraction")},
            samples={"submit": output.submit_s, "complete": output.complete_s},
            problems=problems,
        )

    def reference_problems(self) -> List[str]:
        return []


#: Workload name -> the full-size workload the benchmark runs.
WORKLOADS = {
    w.name: w
    for w in (Fig7BP3D(), InterferenceSweep(), PriorityBacklog(), ServiceZipf())
}
