"""Span tracing for the benchmark's traced run.

The traced run wraps public methods of each layer of ``repro`` with a span
recorder, plays one pass, and restores every original.  A span records its
name, start, end and parent; a span's self time is its duration minus the
time its child spans cover.  As long as the spans nest -- which
:meth:`Tracer.nesting_problems` checks after every traced pass -- the self
times of one pass sum, by construction, to the duration of the root span
(``bench.pass``), whose own self time is the benchmark's glue code.

:data:`LAYERS` is the single list of what is wrapped, the metric names the
traced run reports, and -- in ``moves`` -- which end-to-end metric on which
workload each layer's metrics should move.  Later changes cite them by name.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT_SPAN = "bench.pass"


@dataclasses.dataclass(frozen=True)
class Target:
    """Callables to wrap: methods of a class (and its subclasses) or module functions."""

    module: str
    #: Class name, or ``None`` for module-level functions.
    owner: Optional[str]
    attrs: Tuple[str, ...]
    #: Also wrap overrides in every loaded subclass of ``owner``.
    subclasses: bool = False
    #: Span name for every attr, instead of ``<layer>.<attr>``.
    span: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class Layer:
    name: str
    targets: Tuple[Target, ...]
    #: The end-to-end metric and workload these metrics should move.
    moves: str
    #: Further metrics of this layer: (name, unit, better).
    counters: Tuple[Tuple[str, str, str], ...] = ()


LAYERS: Tuple[Layer, ...] = (
    Layer(
        "core.banditware",
        (
            Target(
                "repro.core.banditware",
                "BanditWare",
                ("recommend", "recommend_vector", "observe", "observe_vector", "observe_batch"),
            ),
        ),
        moves="work_per_s on fig7-bp3d; submit_*/complete_* latency on service-zipf",
        counters=(("bandit.explored_frac", "fraction", "lower"),),
    ),
    Layer(
        "core.policies",
        (Target("repro.core.policies.base", "BanditPolicy", ("select",), subclasses=True),),
        moves="work_per_s on fig7-bp3d; submit_* latency on service-zipf",
    ),
    Layer(
        "core.models",
        (
            Target(
                "repro.core.models.base",
                "ArmModel",
                ("predict_batch", "update_batch", "predict_vector", "update_vector"),
                subclasses=True,
            ),
        ),
        moves="work_per_s on fig7-bp3d; submit_*/complete_* latency on service-zipf",
    ),
    Layer(
        "evaluation.simulation",
        # Deferred scoring has no public entry point; ``_score_series`` is
        # the one batched scoring pass per replication.
        (Target("repro.evaluation.simulation", "OnlineSimulation", ("run", "_score_series")),),
        moves="work_per_s on fig7-bp3d only",
    ),
    Layer(
        "evaluation.engine",
        (
            Target(
                "repro.evaluation.engine",
                None,
                ("run_online_replication", "run_scenario_replications"),
            ),
            Target("repro.evaluation.engine", "ExperimentEngine", ("run",)),
            Target("repro.evaluation.engine", "ScenarioAccountant", ("record",)),
        ),
        moves="work_per_s on interference-sweep and priority-backlog-x32 "
        "(run_online_replication: fig7-bp3d)",
    ),
    Layer(
        "integration.recommender_service",
        (
            Target(
                "repro.integration.recommender_service",
                "RecommendationService",
                ("submit_workflow", "complete_workflow", "complete_workflows"),
            ),
        ),
        moves="submit_*/complete_* latency on service-zipf; work_per_s on interference-sweep",
    ),
    Layer(
        "service",
        (
            Target("repro.evaluation.engine", None, ("build_scenario_service",), span="service.build"),
            Target("repro.evaluation.service_load", None, ("build_load_service",), span="service.build"),
        ),
        moves="work_per_s on interference-sweep (one build per replication)",
    ),
    Layer(
        "cluster.simulator",
        (
            Target(
                "repro.cluster.simulator",
                "ClusterSimulator",
                ("submit", "run_until", "peek_next_event_time"),
            ),
        ),
        moves="work_per_s on interference-sweep and priority-backlog-x32",
        counters=(
            ("cluster.events_pushed", "count", "lower"),
            ("cluster.events_popped", "count", "lower"),
            ("cluster.events_skipped", "count", "lower"),
            ("cluster.events_live_frac", "fraction", "higher"),
        ),
    ),
    Layer(
        "cluster.scheduler",
        (
            Target(
                "repro.cluster.scheduler",
                "Scheduler",
                ("schedule", "sort_pending", "select_victims"),
                subclasses=True,
            ),
        ),
        moves="work_per_s on priority-backlog-x32",
        counters=(("cluster.wasted_frac", "fraction", "lower"),),
    ),
    Layer(
        "cluster.placement",
        (Target("repro.cluster.placement", "PlacementPolicy", ("select",), subclasses=True),),
        moves="work_per_s on interference-sweep",
    ),
    Layer(
        "cluster.interference",
        (
            Target(
                "repro.cluster.interference",
                "InterferenceModel",
                ("node_speeds",),
                subclasses=True,
            ),
        ),
        moves="work_per_s on interference-sweep",
    ),
    Layer(
        "workloads",
        (
            Target(
                "repro.workloads.base",
                "WorkloadModel",
                ("expected_runtime", "observed_runtime"),
                subclasses=True,
            ),
        ),
        moves="work_per_s on interference-sweep and priority-backlog-x32 "
        "(expected_runtime calls are the accountant's oracle tables)",
    ),
    Layer(
        "gc",
        (),
        moves="work_per_s on every workload",
        counters=(("gc.collections", "count", "lower"), ("gc.pause_s", "s", "lower")),
    ),
    Layer(
        "bench",
        (),
        moves="none: the benchmark's own glue and the tracing cost",
        counters=(
            (ROOT_SPAN + ".self_s", "s", "lower"),
            ("trace.spans", "count", "lower"),
            ("trace.wall_s", "s", "lower"),
            ("trace.untraced_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
        ),
    ),
)


def _layer_spans(layer: Layer) -> List[str]:
    names = []
    for target in layer.targets:
        for attr in target.attrs:
            name = target.span or f"{layer.name}.{attr}"
            if name not in names:
                names.append(name)
    return names


def span_names() -> List[str]:
    """Every span name the traced run can record, root first."""
    return [ROOT_SPAN] + [name for layer in LAYERS for name in _layer_spans(layer)]


def per_layer_metrics() -> List[Tuple[str, str, str, str]]:
    """``(name, unit, better, moves)`` of every metric the traced run reports."""
    metrics = []
    for layer in LAYERS:
        for name in _layer_spans(layer):
            metrics.append((f"{name}.calls", "count", "lower", layer.moves))
            metrics.append((f"{name}.self_s", "s", "lower", layer.moves))
        metrics.extend((name, unit, better, layer.moves) for name, unit, better in layer.counters)
    return metrics


def _owners(target: Target) -> List[object]:
    module = importlib.import_module(target.module)
    if target.owner is None:
        return [module]
    root = getattr(module, target.owner)
    owners, queue = [], [root]
    while queue:
        cls = queue.pop()
        if cls not in owners:
            owners.append(cls)
            if target.subclasses:
                queue.extend(cls.__subclasses__())
    return owners


class Tracer:
    """Records spans and counters of one traced pass at a time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[object, str, object]] = []
        self.recommendations = 0
        self.explored = 0
        self.simulators: Dict[int, object] = {}
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_start = 0.0

    # -------------------------------------------------------------- #
    def install(self) -> None:
        """Wrap every target of :data:`LAYERS` and hook the collector."""
        after_hooks: Dict[Tuple[str, str], Callable] = {
            ("BanditWare", "recommend_vector"): self._count_recommendation,
            ("ClusterSimulator", "submit"): self._capture_simulator,
        }
        for layer in LAYERS:
            for target in layer.targets:
                for owner in _owners(target):
                    for attr in target.attrs:
                        original = vars(owner).get(attr)
                        if original is None or getattr(original, "__isabstractmethod__", False):
                            continue
                        span = target.span or f"{layer.name}.{attr}"
                        after = after_hooks.get((getattr(owner, "__name__", ""), attr))
                        setattr(owner, attr, self._wrapper(original, span, after))
                        self._patches.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> List[str]:
        """Restore every original; return the names of any still wrapped."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return installed_wrappers()

    def _wrapper(self, original, span: str, after: Optional[Callable]):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(span)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(traced, original)
        traced.bench_span = span
        return traced

    def _count_recommendation(self, args, recommendation) -> None:
        self.recommendations += 1
        self.explored += bool(recommendation.explored)

    def _capture_simulator(self, args, result) -> None:
        self.simulators[id(args[0])] = args[0]

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_start

    # -------------------------------------------------------------- #
    def begin_pass(self) -> int:
        """Reset the recorded state and open the root span."""
        for store in (self.names, self.starts, self.ends, self.parents):
            store.clear()
        del self._stack[1:]
        self.recommendations = self.explored = self.gc_collections = 0
        self.gc_pause_s = 0.0
        self.simulators = {}
        self.names.append(ROOT_SPAN)
        self.parents.append(-1)
        self.ends.append(0.0)
        self._stack.append(0)
        self.starts.append(time.perf_counter())
        return 0

    def end_pass(self) -> None:
        self.ends[0] = time.perf_counter()
        self._stack.pop()

    def nesting_problems(self) -> List[str]:
        """Ways the pass's spans fail to form one tree rooted at ``bench.pass``."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        parents = np.asarray(self.parents)
        if parents[0] != -1 or (parents[1:] < 0).any():
            return ["a span other than the root has no parent"]
        if (parents[1:] >= np.arange(1, len(parents))).any():
            return ["a span's parent opened after it"]
        problems = []
        if (ends < starts).any():
            problems.append("a span ends before it starts or never ended")
        inner = parents[1:]
        if (starts[1:] < starts[inner]).any() or (ends[1:] > ends[inner]).any():
            problems.append("a span reaches outside its parent's interval")
        return problems

    def pass_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the pass just traced (``.calls``, ``.self_s``, counters)."""
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        parents = np.asarray(self.parents)
        duration = ends - starts
        covered = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        self_time = duration - covered
        metrics: Dict[str, float] = {}
        for name in span_names():
            metrics[f"{name}.calls"] = 0.0
            metrics[f"{name}.self_s"] = 0.0
        for name, own in zip(self.names, self_time.tolist()):
            metrics[f"{name}.calls"] += 1.0
            metrics[f"{name}.self_s"] += own
        del metrics[f"{ROOT_SPAN}.calls"]
        stats = {"pushed": 0, "popped": 0, "skipped": 0}
        for simulator in self.simulators.values():
            for key in stats:
                stats[key] += simulator.event_stats[key]
        for key, value in stats.items():
            metrics[f"cluster.events_{key}"] = float(value)
        handled = stats["popped"] + stats["skipped"]
        metrics["cluster.events_live_frac"] = stats["popped"] / handled if handled else 0.0
        metrics["bandit.explored_frac"] = (
            self.explored / self.recommendations if self.recommendations else 0.0
        )
        metrics["gc.collections"] = float(self.gc_collections)
        metrics["gc.pause_s"] = self.gc_pause_s
        metrics["trace.spans"] = float(len(self.names))
        metrics["trace.wall_s"] = float(duration[0])
        return metrics

    def spans(self) -> List[Tuple[str, float, float, int]]:
        """A copy of the pass's spans: ``(name, start, end, parent index)``."""
        return list(zip(self.names, self.starts, self.ends, self.parents))


def installed_wrappers() -> List[str]:
    """``owner.attr`` of every target that currently holds a span wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for layer in LAYERS
        for target in layer.targets
        for owner in _owners(target)
        for attr in target.attrs
        if hasattr(vars(owner).get(attr), "bench_span")
    ]


def write_spans(spans: List[Tuple[str, float, float, int]], path: Path) -> None:
    """Write spans as JSON lines, times relative to the root span's start."""
    origin = spans[0][1]
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for name, start, end, parent in spans:
            handle.write(
                json.dumps(
                    {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
                )
                + "\n"
            )
