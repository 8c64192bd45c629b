"""Tests for the load service behind ``service-zipf`` (:mod:`repro.evaluation.service_load`).

Pins what the benchmark relies on: the Zipfian popularity weights, input
checks at construction, the applications the builder registers, and that
one config replays the same decisions on the same request stream, at any
shard count.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np
import pytest

from repro.evaluation import ServiceLoadConfig, ZipfianAppMix, build_load_service


def _decision_stream(
    config: ServiceLoadConfig, request_seed: int = 0, n_requests: int = 400, window: int = 16
):
    """Every decision of a closed loop over a Zipf request stream.

    Mirrors ``service-zipf``: one caller submits each request and completes
    the oldest pending ticket whenever ``window`` are pending, then drains
    the rest; observed runtimes come from each application's workload.
    ``request_seed`` fixes the requests and runtimes, ``config.seed`` the
    service's exploration.
    """
    service, workloads = build_load_service(config)
    apps = list(workloads)
    weights = ZipfianAppMix(config.n_apps, config.zipf_exponent).weights()
    chosen = np.random.default_rng([request_seed, 1]).choice(
        config.n_apps, size=n_requests, p=weights
    )
    feature_rng = np.random.default_rng([request_seed, 2])
    runtime_rng = np.random.default_rng([request_seed, 3])
    stream = []
    pending = collections.deque()

    def complete_oldest():
        ticket = pending.popleft()
        runtime = workloads[ticket.application].observed_runtime(
            ticket.features, ticket.recommendation.hardware, runtime_rng
        )
        service.complete_workflow(ticket.ticket_id, runtime)

    for index in chosen:
        app = apps[index]
        ticket = service.submit_workflow(app, workloads[app].sample_features(feature_rng))
        recommendation = ticket.recommendation
        stream.append(
            (
                ticket.ticket_id,
                app,
                recommendation.hardware.name,
                recommendation.explored,
                tuple((k, float(v).hex()) for k, v in sorted(recommendation.estimates.items())),
            )
        )
        pending.append(ticket)
        if len(pending) == window:
            complete_oldest()
    while pending:
        complete_oldest()
    assert not service.pending_tickets()
    return stream


class TestZipfianAppMix:
    def test_weights_sum_to_one_and_decrease(self):
        weights = ZipfianAppMix(n_apps=16, exponent=1.1).weights()
        assert weights.sum() == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_weights_follow_the_power_law(self):
        weights = ZipfianAppMix(n_apps=4, exponent=1.0).weights()
        assert weights.tolist() == pytest.approx([12 / 25, 6 / 25, 4 / 25, 3 / 25])

    def test_one_app_takes_all_traffic(self):
        assert ZipfianAppMix(n_apps=1).weights().tolist() == [1.0]

    def test_accepts_a_numpy_integer_app_count(self):
        assert len(ZipfianAppMix(np.int64(8), 0.9).weights()) == 8

    @pytest.mark.parametrize("n_apps", [0, 2.5, True])
    def test_rejects_an_app_count_that_is_not_a_positive_integer(self, n_apps):
        with pytest.raises(ValueError, match="n_apps"):
            ZipfianAppMix(n_apps)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_an_exponent_that_is_not_finite_and_positive(self, exponent):
        with pytest.raises(ValueError, match="exponent"):
            ZipfianAppMix(32, exponent)


class TestServiceLoadConfig:
    def test_defaults_are_the_benchmark_shape(self):
        config = ServiceLoadConfig()
        assert [f.name for f in dataclasses.fields(config)] == [
            "n_apps", "n_shards", "n_features", "seed", "zipf_exponent"
        ]
        assert dataclasses.astuple(config) == (32, 1, 3, 0, 0.9)

    @pytest.mark.parametrize("field", ["n_apps", "n_shards", "n_features"])
    @pytest.mark.parametrize("value", [0, -3, 2.5, True])
    def test_rejects_a_count_that_is_not_a_positive_integer(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceLoadConfig(**{field: value})

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), 0.0])
    def test_rejects_an_exponent_that_is_not_finite_and_positive(self, exponent):
        with pytest.raises(ValueError, match="zipf_exponent"):
            ServiceLoadConfig(zipf_exponent=exponent)


class TestBuildLoadService:
    def test_registers_every_application_with_its_feature_names(self):
        config = ServiceLoadConfig(n_apps=12, n_features=4)
        service, workloads = build_load_service(config)
        names = [f"app-{index:02d}" for index in range(12)]
        assert list(workloads) == names
        assert [info.name for info in service.registry.list_applications()] == names
        for name, workload in workloads.items():
            assert len(workload.feature_names) == 4
            assert service.registry.get(name).feature_names == tuple(workload.feature_names)

    def test_workloads_do_not_depend_on_the_app_count(self):
        service, small = build_load_service(ServiceLoadConfig(n_apps=4))
        _, large = build_load_service(ServiceLoadConfig(n_apps=32))
        features = small["app-03"].sample_features(np.random.default_rng(0))
        for hardware in service.catalog:
            assert small["app-03"].expected_runtime(features, hardware) == large[
                "app-03"
            ].expected_runtime(features, hardware)

    def test_service_has_the_configured_shards(self):
        service, workloads = build_load_service(ServiceLoadConfig(n_apps=16, n_shards=4))
        assert service.n_shards == 4
        assert {service.shard_for(name) for name in workloads} <= {0, 1, 2, 3}

    def test_service_seed_moves_the_decisions(self):
        assert _decision_stream(ServiceLoadConfig(n_apps=8, seed=3)) != _decision_stream(
            ServiceLoadConfig(n_apps=8, seed=4)
        )

    def test_one_config_replays_the_same_decisions(self):
        config = ServiceLoadConfig(n_apps=8, seed=3)
        stream = _decision_stream(config, request_seed=3)
        assert len(stream) == 400
        assert len({app for _, app, *_ in stream}) > 1
        assert _decision_stream(config, request_seed=3) == stream

    def test_shard_count_changes_no_decision(self):
        one = _decision_stream(ServiceLoadConfig(n_apps=8, n_shards=1, seed=3), request_seed=3)
        four = _decision_stream(ServiceLoadConfig(n_apps=8, n_shards=4, seed=3), request_seed=3)
        assert four == one
