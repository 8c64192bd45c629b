"""Traffic harness for the sharded serving layer.

Drives Zipfian-skewed multi-application request mixes -- plus flash-crowd
("hotspot") and campaign ("bursty") temporal patterns -- through the full
serving stack: consistent-hash routing to shards, bounded admission queues
with explicit backpressure, request batching into the coalesced entry
points, and real recommender learning on every completion.  Reports
recommendations/sec and p50/p95/p99 request latency per mix (the
``run-service-load`` CLI command prints them).

Clock model
-----------
The harness is **event-driven in simulated time**: every recommendation and
completion runs for real (real models, real policy state, real admission
queues), but the *time axis* is simulated -- serving a batch of ``k``
requests occupies its shard for ``batch_overhead + k * cost_per_request``
simulated seconds, where ``cost_per_request`` is calibrated from the real
measured wall-clock cost of a submit/complete cycle (or passed explicitly
for deterministic tests).  The same constant is used for every shard count,
so reported throughput ratios measure the *architecture* (how many shards
can drain queues concurrently, since shards share no state) rather than
this container's core count; results label themselves with
``"clock": "simulated"`` and carry the calibrated constant.  Real measured
wall-clock rates of the serving layer come from the benchmark's
``service-zipf`` workload (``perfbench/``).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware import ndp_catalog
from repro.integration import (
    AdmissionController,
    BackpressureError,
    RecommendationService,
)
from repro.workloads import (
    ArrivalProcess,
    BurstyArrivals,
    HotspotArrivals,
    LinearRuntimeWorkload,
    PoissonArrivals,
)

__all__ = [
    "ZipfianAppMix",
    "HotspotAppMix",
    "ServiceLoadConfig",
    "ServiceLoadResult",
    "build_load_service",
    "standard_mixes",
    "run_service_load",
    "calibrate_cost_per_request",
]


@dataclass(frozen=True)
class ZipfianAppMix:
    """Zipfian application popularity: app ``i`` has weight ``1/(i+1)^s``.

    The skew of real multi-tenant platforms -- a few applications dominate
    traffic -- which is exactly what stresses per-shard load balance.
    """

    n_apps: int
    exponent: float = 1.1

    def __post_init__(self) -> None:
        if self.n_apps < 1:
            raise ValueError(f"n_apps must be >= 1, got {self.n_apps}")
        if self.exponent <= 0:
            raise ValueError(f"exponent must be positive, got {self.exponent}")

    def weights(self) -> np.ndarray:
        raw = 1.0 / np.arange(1, self.n_apps + 1) ** self.exponent
        return raw / raw.sum()

    def choose(self, t: float, rng: np.random.Generator) -> int:
        """The application index of a request arriving at time ``t``."""
        return int(rng.choice(self.n_apps, p=self.weights()))


@dataclass(frozen=True)
class HotspotAppMix:
    """Zipfian background traffic with a flash crowd on one application.

    Inside ``[hotspot_start, hotspot_start + hotspot_duration)`` a request
    targets ``hot_app`` with probability ``hot_probability`` (falling back
    to the Zipfian draw otherwise) -- the "one tenant goes viral" pattern
    that concentrates load on a single shard.
    """

    n_apps: int
    exponent: float = 1.1
    hot_app: int = 0
    hot_probability: float = 0.8
    hotspot_start: float = 0.0
    hotspot_duration: float = 10.0

    def __post_init__(self) -> None:
        if not 0 <= self.hot_app < self.n_apps:
            raise ValueError(f"hot_app {self.hot_app} out of range for {self.n_apps} apps")
        if not 0 <= self.hot_probability <= 1:
            raise ValueError(f"hot_probability must be in [0, 1], got {self.hot_probability}")

    def _base(self) -> ZipfianAppMix:
        return ZipfianAppMix(self.n_apps, self.exponent)

    def choose(self, t: float, rng: np.random.Generator) -> int:
        in_window = self.hotspot_start <= t < self.hotspot_start + self.hotspot_duration
        if in_window and rng.random() < self.hot_probability:
            return self.hot_app
        return self._base().choose(t, rng)


@dataclass(frozen=True)
class ServiceLoadConfig:
    """Knobs of one load-harness run (see module docstring for the clock model)."""

    n_apps: int = 32
    n_shards: int = 1
    n_requests: int = 2000
    n_features: int = 3
    seed: int = 0
    #: Zipf exponent of the benchmark mixes.  Consistent hashing is
    #: load-oblivious, so the achievable N-shard speedup is capped at
    #: ``1 / max_shard_share``; heavier skew (or fewer apps) lowers the cap.
    zipf_exponent: float = 0.9
    #: Simulated seconds one request occupies its shard; ``None`` calibrates
    #: from real wall clock (:func:`calibrate_cost_per_request`).
    cost_per_request: Optional[float] = None
    #: Fixed per-batch dispatch cost (simulated seconds) -- what coalescing
    #: amortises.
    batch_overhead: float = 0.0005
    max_batch: int = 16
    queue_capacity: int = 128
    #: Client retries after backpressure before giving up (abandonment is
    #: counted, never silent).
    max_retries: int = 5
    #: Offered load as a multiple of the aggregate drain rate of
    #: ``saturation_shards`` shards (defaults to ``n_shards``); > 1 keeps
    #: every shard busy so throughput measures drain capacity.
    saturation_factor: float = 2.0
    saturation_shards: Optional[int] = None


@dataclass
class ServiceLoadResult:
    """Metrics of one mix run through the serving stack."""

    mix: str
    n_shards: int
    n_requests: int
    completed: int
    rejected_admissions: int
    retries: int
    abandoned: int
    duration_seconds: float
    throughput_rps: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_mean: float
    cost_per_request: float
    offered_rate_rps: float
    shard_utilisation: List[float] = field(default_factory=list)
    shard_stats: Dict[int, Dict[str, int]] = field(default_factory=dict)
    clock: str = "simulated"

    def to_dict(self) -> Dict:
        return {
            "mix": self.mix,
            "n_shards": self.n_shards,
            "n_requests": self.n_requests,
            "completed": self.completed,
            "rejected_admissions": self.rejected_admissions,
            "retries": self.retries,
            "abandoned": self.abandoned,
            "duration_seconds": self.duration_seconds,
            "throughput_rps": self.throughput_rps,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "latency_mean": self.latency_mean,
            "cost_per_request": self.cost_per_request,
            "offered_rate_rps": self.offered_rate_rps,
            "shard_utilisation": self.shard_utilisation,
            "shard_stats": {str(k): v for k, v in self.shard_stats.items()},
            "clock": self.clock,
        }


def build_load_service(
    config: ServiceLoadConfig,
) -> Tuple[RecommendationService, Dict[str, LinearRuntimeWorkload]]:
    """A service with ``n_apps`` registered synthetic applications."""
    catalog = ndp_catalog()
    service = RecommendationService(
        catalog=catalog, seed=config.seed, n_shards=config.n_shards
    )
    workloads: Dict[str, LinearRuntimeWorkload] = {}
    for index in range(config.n_apps):
        name = f"app-{index:02d}"
        workload = LinearRuntimeWorkload.random(
            catalog, n_features=config.n_features, seed=1000 + index, name=name
        )
        workloads[name] = workload
        service.register_application(
            name, owner=f"tenant-{index:02d}", feature_names=workload.feature_names
        )
    return service, workloads


def calibrate_cost_per_request(n_probe: int = 200, seed: int = 0) -> float:
    """Real measured wall-clock seconds of one submit+complete cycle.

    Runs ``n_probe`` full recommendation/observation cycles on a scratch
    service and returns the mean per-request cost -- the constant anchoring
    the simulated clock to this machine's real serving speed.
    """
    config = ServiceLoadConfig(n_apps=4, n_shards=1, seed=seed)
    service, workloads = build_load_service(config)
    rng = np.random.default_rng(seed)
    apps = list(workloads)
    start = time.perf_counter()
    for i in range(n_probe):
        app = apps[i % len(apps)]
        features = workloads[app].sample_features(rng)
        ticket = service.submit_workflow(app, features)
        runtime = workloads[app].observed_runtime(
            ticket.features, ticket.recommendation.hardware, rng
        )
        service.complete_workflow(ticket.ticket_id, runtime)
    return (time.perf_counter() - start) / n_probe


def standard_mixes(
    config: ServiceLoadConfig, offered_rate: float
) -> Dict[str, Tuple[object, ArrivalProcess]]:
    """The three benchmark traffic mixes at ``offered_rate`` requests/sec."""
    horizon = config.n_requests / offered_rate
    return {
        "zipfian": (
            ZipfianAppMix(config.n_apps, config.zipf_exponent),
            PoissonArrivals(rate_per_second=offered_rate),
        ),
        "hotspot": (
            HotspotAppMix(
                config.n_apps,
                config.zipf_exponent,
                hotspot_start=horizon * 0.25,
                hotspot_duration=horizon * 0.25,
            ),
            HotspotArrivals(
                base_rate_per_second=offered_rate * 0.75,
                hotspot_factor=2.0,
                hotspot_start=horizon * 0.25,
                hotspot_duration=horizon * 0.25,
            ),
        ),
        "bursty": (
            ZipfianAppMix(config.n_apps, config.zipf_exponent),
            BurstyArrivals(
                burst_size=max(8, config.max_batch),
                burst_interval_seconds=max(8, config.max_batch) / offered_rate,
                jitter_seconds=0.1 / offered_rate,
            ),
        ),
    }


@dataclass
class _Request:
    index: int
    app: str
    arrival_time: float
    retries: int = 0


def run_service_load(
    mix_name: str,
    config: ServiceLoadConfig,
    app_mix=None,
    arrivals: Optional[ArrivalProcess] = None,
) -> ServiceLoadResult:
    """Run one traffic mix through the serving stack; see the module docstring.

    ``mix_name`` selects from :func:`standard_mixes` unless an explicit
    ``(app_mix, arrivals)`` pair overrides it.  Fully deterministic given
    ``config`` (and an explicit ``cost_per_request``).
    """
    cost = config.cost_per_request
    if cost is None:
        cost = calibrate_cost_per_request(seed=config.seed)
    if not cost > 0:
        raise ValueError(f"cost_per_request must be positive, got {cost}")
    saturation_shards = config.saturation_shards or config.n_shards
    offered_rate = config.saturation_factor * saturation_shards / cost
    if app_mix is None or arrivals is None:
        try:
            app_mix, arrivals = standard_mixes(config, offered_rate)[mix_name]
        except KeyError:
            raise ValueError(
                f"unknown mix {mix_name!r}; known: "
                f"{sorted(standard_mixes(config, offered_rate))}"
            ) from None

    service, workloads = build_load_service(config)
    apps = list(workloads)
    controller = AdmissionController(
        n_shards=config.n_shards,
        capacity=config.queue_capacity,
        drain_rate_per_second=1.0 / cost,
    )
    arrival_rng = np.random.default_rng(config.seed + 1)
    app_rng = np.random.default_rng(config.seed + 2)
    runtime_rng = np.random.default_rng(config.seed + 3)

    arrival_times = arrivals.arrival_times(config.n_requests, arrival_rng)
    events: List[Tuple[float, int, str, object]] = []
    seq = 0
    for index, t in enumerate(arrival_times):
        app = apps[app_mix.choose(t, app_rng)]
        heapq.heappush(events, (t, seq, "arrival", _Request(index, app, t)))
        seq += 1

    shard_busy = [False] * config.n_shards
    shard_busy_time = [0.0] * config.n_shards
    latencies: List[float] = []
    retries = 0
    abandoned = 0
    completed = 0
    first_arrival = arrival_times[0] if arrival_times else 0.0
    last_completion = first_arrival

    def start_batch(shard_id: int, now: float) -> None:
        nonlocal seq
        batch = controller.pop_batch(shard_id, config.max_batch)
        if not batch:
            return
        shard_busy[shard_id] = True
        by_app: Dict[str, List[_Request]] = {}
        for request in batch:
            by_app.setdefault(request.app, []).append(request)
        served: List[Tuple[_Request, object]] = []
        for app, requests in by_app.items():
            features = [workloads[app].sample_features(runtime_rng) for _ in requests]
            tickets = service.submit_workflows(app, features)
            served.extend(zip(requests, tickets))
        service_time = config.batch_overhead + len(batch) * cost
        shard_busy_time[shard_id] += service_time
        heapq.heappush(events, (now + service_time, seq, "done", (shard_id, served)))
        seq += 1

    while events:
        now, _, kind, payload = heapq.heappop(events)
        if kind == "arrival":
            request = payload
            shard_id = service.shard_for(request.app)
            try:
                controller.admit(shard_id, request)
            except BackpressureError as error:
                if request.retries < config.max_retries:
                    request.retries += 1
                    retries += 1
                    heapq.heappush(
                        events,
                        (now + error.retry_after_seconds, seq, "arrival", request),
                    )
                    seq += 1
                else:
                    abandoned += 1
                continue
            if not shard_busy[shard_id]:
                start_batch(shard_id, now)
        else:  # done
            shard_id, served = payload
            completions = []
            for request, ticket in served:
                runtime = workloads[request.app].observed_runtime(
                    ticket.features, ticket.recommendation.hardware, runtime_rng
                )
                completions.append((ticket.ticket_id, runtime))
                latencies.append(now - request.arrival_time)
            service.complete_workflows(completions)
            completed += len(served)
            last_completion = now
            shard_busy[shard_id] = False
            start_batch(shard_id, now)

    duration = max(last_completion - first_arrival, 1e-12)
    rejected = sum(q["rejected"] for q in controller.stats().values())
    lat = np.asarray(latencies) if latencies else np.asarray([0.0])
    return ServiceLoadResult(
        mix=mix_name,
        n_shards=config.n_shards,
        n_requests=config.n_requests,
        completed=completed,
        rejected_admissions=rejected,
        retries=retries,
        abandoned=abandoned,
        duration_seconds=float(duration),
        throughput_rps=float(completed / duration),
        latency_p50=float(np.percentile(lat, 50)),
        latency_p95=float(np.percentile(lat, 95)),
        latency_p99=float(np.percentile(lat, 99)),
        latency_mean=float(lat.mean()),
        cost_per_request=float(cost),
        offered_rate_rps=float(offered_rate),
        shard_utilisation=[
            float(busy / duration) for busy in shard_busy_time
        ],
        shard_stats=controller.stats(),
    )
