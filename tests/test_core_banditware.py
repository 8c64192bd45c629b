"""Tests for the BanditWare façade and reward/regret accounting."""

import numpy as np
import pytest

from repro.core import (
    BanditWare,
    DecayingEpsilonGreedyPolicy,
    GreedyPolicy,
    RegretLedger,
    RidgeModel,
    RoundOutcome,
    ToleranceConfig,
)
from repro.dataframe import DataFrame
from repro.hardware import ndp_catalog
from repro.workloads import LinearRuntimeWorkload, TraceGenerator


@pytest.fixture
def bandit(ndp):
    return BanditWare(catalog=ndp, feature_names=["x0", "x1"], seed=0)


class TestConstruction:
    def test_one_model_per_arm(self, bandit, ndp):
        assert len(bandit.models) == len(ndp)
        assert bandit.n_features == 2

    def test_duplicate_features_rejected(self, ndp):
        with pytest.raises(ValueError):
            BanditWare(catalog=ndp, feature_names=["x", "x"])

    def test_empty_features_rejected(self, ndp):
        with pytest.raises(ValueError):
            BanditWare(catalog=ndp, feature_names=[])

    def test_default_policy_matches_paper(self, bandit):
        assert isinstance(bandit.policy, DecayingEpsilonGreedyPolicy)
        assert bandit.policy.epsilon0 == 1.0
        assert bandit.policy.decay == 0.99

    def test_custom_arm_model_factory(self, ndp):
        bandit = BanditWare(
            catalog=ndp,
            feature_names=["x"],
            arm_model_factory=lambda m: RidgeModel(m, alpha=2.0),
        )
        assert all(isinstance(m, RidgeModel) for m in bandit.models)

    def test_tolerance_shortcut_passes_through(self, ndp):
        bandit = BanditWare(
            catalog=ndp,
            feature_names=["x"],
            tolerance=ToleranceConfig(seconds=20.0),
        )
        assert bandit.policy.tolerance.seconds == 20.0


class TestOnlineLoop:
    def test_recommend_returns_catalog_hardware(self, bandit, ndp):
        rec = bandit.recommend({"x0": 1.0, "x1": 2.0})
        assert rec.hardware.name in ndp.names
        assert set(rec.estimates) == set(ndp.names)

    def test_recommend_missing_feature(self, bandit):
        with pytest.raises(KeyError, match="x1"):
            bandit.recommend({"x0": 1.0})


class TestContextVector:
    """``context_vector`` is the one place a features dict becomes ``x``."""

    def test_orders_features_by_feature_names(self, ndp):
        bandit = BanditWare(catalog=ndp, feature_names=["a", "b"], seed=0)
        assert bandit.context_vector({"b": 2.0, "a": 1.0}).tolist() == [1.0, 2.0]

    def test_missing_feature_named_in_error(self, ndp):
        bandit = BanditWare(catalog=ndp, feature_names=["a", "z"], seed=0)
        with pytest.raises(KeyError, match=r"\['z'\]"):
            bandit.context_vector({"a": 1.0})

    def test_extra_keys_ignored(self, bandit):
        vec = bandit.context_vector({"x1": 4, "unused": 9.0, "x0": 3})
        assert vec.dtype == float
        assert vec.tolist() == [3.0, 4.0]

    def test_bp3d_features_follow_declared_order(self, ndp, bp3d_workload, rng):
        from repro.workloads import BP3D_FEATURES

        bandit = BanditWare(catalog=ndp, feature_names=bp3d_workload.feature_names, seed=0)
        f = bp3d_workload.sample_features(rng)
        vec = bandit.context_vector(f)
        assert vec.shape == (len(BP3D_FEATURES),)
        assert vec.tolist() == [f[name] for name in BP3D_FEATURES]
        assert vec[-1] == f["area"]

    def test_observe_updates_only_that_arm(self, bandit):
        bandit.observe({"x0": 1.0, "x1": 2.0}, "H1", 50.0)
        counts = bandit.observation_counts()
        assert counts == {"H0": 0, "H1": 1, "H2": 0}

    def test_observe_accepts_config_object(self, bandit, ndp):
        bandit.observe({"x0": 1.0, "x1": 2.0}, ndp["H2"], 10.0)
        assert bandit.observation_counts()["H2"] == 1

    def test_observe_rejects_bad_runtime(self, bandit):
        with pytest.raises(ValueError):
            bandit.observe({"x0": 1.0, "x1": 1.0}, "H0", -1.0)
        with pytest.raises(ValueError):
            bandit.observe({"x0": 1.0, "x1": 1.0}, "H0", float("inf"))

    def test_history_records_observations(self, bandit):
        bandit.observe({"x0": 1.0, "x1": 2.0}, "H0", 5.0)
        assert len(bandit.history) == 1
        assert bandit.history[0].hardware == "H0"

    def test_predict_runtimes_after_learning(self, bandit):
        for x in np.linspace(1, 10, 20):
            bandit.observe({"x0": x, "x1": 0.0}, "H0", 3.0 * x + 1.0)
        predictions = bandit.predict_runtimes({"x0": 5.0, "x1": 0.0})
        assert predictions["H0"] == pytest.approx(16.0, abs=0.5)

    def test_best_hardware_uses_current_models(self, bandit):
        for x in np.linspace(1, 10, 15):
            bandit.observe({"x0": x, "x1": 0.0}, "H0", 100.0 * x)
            bandit.observe({"x0": x, "x1": 0.0}, "H1", 1.0 * x)
            bandit.observe({"x0": x, "x1": 0.0}, "H2", 50.0 * x)
        assert bandit.best_hardware({"x0": 5.0, "x1": 0.0}).name == "H1"

    def test_best_hardware_with_tolerance_prefers_efficiency(self, bandit):
        for x in np.linspace(1, 10, 15):
            bandit.observe({"x0": x, "x1": 0.0}, "H0", 1.1 * x)
            bandit.observe({"x0": x, "x1": 0.0}, "H1", 5.0 * x)
            bandit.observe({"x0": x, "x1": 0.0}, "H2", 1.0 * x)
        chosen = bandit.best_hardware(
            {"x0": 5.0, "x1": 0.0}, tolerance=ToleranceConfig(seconds=20.0)
        )
        assert chosen.name == "H0"

    def test_coefficients_named_per_arm(self, bandit):
        bandit.observe({"x0": 1.0, "x1": 2.0}, "H0", 5.0)
        coeffs = bandit.coefficients()
        assert set(coeffs) == {"H0", "H1", "H2"}
        assert set(coeffs["H0"]) == {"w_x0", "w_x1", "b"}

    def test_reset_clears_everything(self, bandit):
        bandit.observe({"x0": 1.0, "x1": 2.0}, "H0", 5.0)
        bandit.recommend({"x0": 1.0, "x1": 2.0})
        bandit.reset()
        assert bandit.observation_counts() == {"H0": 0, "H1": 0, "H2": 0}
        assert bandit.history == []
        assert bandit.policy.epsilon == bandit.policy.epsilon0

    def test_seeded_runs_are_reproducible(self, ndp, linear_workload):
        def run(seed):
            rng = np.random.default_rng(99)
            bandit = BanditWare(catalog=ndp, feature_names=linear_workload.feature_names, seed=seed)
            picks = []
            for _ in range(30):
                f = linear_workload.sample_features(rng)
                rec = bandit.recommend(f)
                runtime = linear_workload.observed_runtime(f, rec.hardware, rng)
                bandit.observe(f, rec.hardware, runtime)
                picks.append(rec.hardware.name)
            return picks

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestLearningBehaviour:
    def test_learns_best_arm_on_linear_workload(self, ndp):
        """After enough rounds the bandit recommends the truly fastest arm."""
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (1.0, 10.0)},
            coefficients={
                "H0": ({"x": 30.0}, 10.0),
                "H1": ({"x": 5.0}, 10.0),
                "H2": ({"x": 15.0}, 10.0),
            },
            noise_sigma=1.0,
        )
        rng = np.random.default_rng(0)
        bandit = BanditWare(catalog=ndp, feature_names=["x"], seed=1)
        for _ in range(120):
            f = workload.sample_features(rng)
            rec = bandit.recommend(f)
            bandit.observe(f, rec.hardware, workload.observed_runtime(f, rec.hardware, rng))
        final = [bandit.best_hardware({"x": float(x)}).name for x in (2.0, 5.0, 9.0)]
        assert final == ["H1", "H1", "H1"]

    def test_recovers_per_arm_coefficients(self, ndp):
        workload = LinearRuntimeWorkload(
            feature_ranges={"x": (1.0, 10.0)},
            coefficients={name: ({"x": 3.0 + i}, 7.0) for i, name in enumerate(ndp.names)},
            noise_sigma=0.01,
        )
        rng = np.random.default_rng(2)
        bandit = BanditWare(catalog=ndp, feature_names=["x"], seed=3)
        gen_features = [workload.sample_features(rng) for _ in range(40)]
        for f in gen_features:
            for hw in ndp:
                bandit.observe(f, hw, workload.observed_runtime(f, hw, rng))
        for i, hw in enumerate(ndp):
            fitted = bandit.coefficients()[hw.name]
            assert fitted["w_x"] == pytest.approx(3.0 + i, abs=0.05)
            assert fitted["b"] == pytest.approx(7.0, abs=0.3)


class TestWarmStart:
    def test_warm_start_ingests_rows(self, ndp, linear_workload):
        generator = TraceGenerator(linear_workload, ndp, seed=4)
        frame = generator.generate_frame(30)
        bandit = BanditWare(catalog=ndp, feature_names=linear_workload.feature_names, seed=0)
        ingested = bandit.warm_start(frame)
        assert ingested == 30
        assert sum(bandit.observation_counts().values()) == 30

    def test_warm_start_skips_unknown_hardware(self, ndp, linear_workload):
        generator = TraceGenerator(linear_workload, ndp, seed=4)
        frame = generator.generate_frame(10)
        frame["hardware"] = ["H9"] * len(frame)
        bandit = BanditWare(catalog=ndp, feature_names=linear_workload.feature_names)
        assert bandit.warm_start(frame) == 0

    def test_warm_start_missing_column(self, ndp):
        bandit = BanditWare(catalog=ndp, feature_names=["x0"])
        with pytest.raises(KeyError):
            bandit.warm_start(DataFrame({"hardware": ["H0"], "runtime_seconds": [1.0]}))

    def test_warm_started_predictions_match_offline_fit(self, ndp, linear_workload):
        generator = TraceGenerator(linear_workload, ndp, seed=4)
        frame = generator.generate_frame(60)
        bandit = BanditWare(catalog=ndp, feature_names=linear_workload.feature_names)
        bandit.warm_start(frame)
        f = {name: 50.0 for name in linear_workload.feature_names}
        predictions = bandit.predict_runtimes(f)
        truth = {hw.name: linear_workload.expected_runtime(f, hw) for hw in ndp}
        for name in ndp.names:
            if bandit.observation_counts()[name] >= 5:
                assert predictions[name] == pytest.approx(truth[name], rel=0.2)


class TestRewardsAndRegret:
    def _outcome(self, i, chosen, best, runtime, best_runtime, chosen_runtime, explored=False):
        return RoundOutcome(
            round_index=i,
            chosen_hardware=chosen,
            best_hardware=best,
            observed_runtime=runtime,
            best_expected_runtime=best_runtime,
            expected_runtime_on_chosen=chosen_runtime,
            explored=explored,
        )

    def test_ledger_accuracy_and_regret(self):
        ledger = RegretLedger()
        ledger.record(self._outcome(0, "H0", "H0", 10.0, 10.0, 10.0))
        ledger.record(self._outcome(1, "H1", "H0", 15.0, 10.0, 14.0, explored=True))
        assert len(ledger) == 2
        assert ledger.accuracy_curve().tolist() == [1.0, 0.5]
        assert ledger.cumulative_runtime_regret().tolist() == [0.0, 4.0]
        assert ledger.exploration_fraction() == 0.5
        assert ledger.total_observed_runtime() == 25.0

    def test_ledger_windowed_accuracy(self):
        ledger = RegretLedger()
        for i in range(4):
            correct = i >= 2
            ledger.record(
                self._outcome(i, "H0" if correct else "H1", "H0", 10.0, 10.0, 12.0)
            )
        windowed = ledger.accuracy_curve(window=2)
        assert windowed.tolist() == [0.0, 0.0, 0.5, 1.0]

    def test_ledger_final_accuracy_is_fraction_correct(self):
        ledger = RegretLedger()
        for i, chosen in enumerate(["H0", "H1", "H0", "H0"]):
            ledger.record(self._outcome(i, chosen, "H0", 10.0, 10.0, 10.0))
        assert ledger.accuracy_curve()[-1] == 0.75
        assert ledger.summary()["accuracy"] == 0.75

    def test_empty_ledger_curves_are_empty(self):
        ledger = RegretLedger()
        assert ledger.accuracy_curve().size == 0
        assert ledger.accuracy_curve(window=3).size == 0
        assert ledger.cumulative_runtime_regret().size == 0

    def test_windowed_accuracy_rejects_non_positive_window(self):
        ledger = RegretLedger()
        ledger.record(self._outcome(0, "H0", "H0", 10.0, 10.0, 10.0))
        with pytest.raises(ValueError, match="window"):
            ledger.accuracy_curve(window=0)

    def test_ledger_rejects_out_of_order_rounds(self):
        ledger = RegretLedger()
        ledger.record(self._outcome(3, "H0", "H0", 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            ledger.record(self._outcome(2, "H0", "H0", 1.0, 1.0, 1.0))

    def test_empty_ledger_summary(self):
        assert RegretLedger().summary()["rounds"] == 0

    def test_summary_fields(self):
        ledger = RegretLedger()
        ledger.record(self._outcome(0, "H0", "H0", 10.0, 10.0, 10.0))
        summary = ledger.summary()
        assert summary["accuracy"] == 1.0
        assert summary["cumulative_regret"] == 0.0


class TestQueueAwareObservations:
    """Opt-in queue-inclusive reward shaping of BanditWare's learning signal."""

    def _bandit(self, reward=None):
        from repro.core import GreedyPolicy, RewardConfig  # noqa: F401

        return BanditWare(
            catalog=ndp_catalog(),
            feature_names=["x"],
            policy=GreedyPolicy(),
            seed=0,
            reward=reward,
        )

    def test_default_mode_ignores_queue_seconds(self):
        from repro.core import RewardConfig

        plain = self._bandit()
        queued = self._bandit(reward=RewardConfig())
        for bandit in (plain, queued):
            bandit.observe({"x": 1.0}, "H0", 10.0, queue_seconds=500.0)
            bandit.observe({"x": 2.0}, "H0", 20.0, queue_seconds=500.0)
        assert plain.model_for("H0").predict(np.asarray([3.0])) == pytest.approx(
            queued.model_for("H0").predict(np.asarray([3.0]))
        )
        # Training target is the raw runtime: x=3 extrapolates to 30.
        assert plain.model_for("H0").predict(np.asarray([3.0])) == pytest.approx(30.0)

    def test_queue_inclusive_mode_inflates_training_target(self):
        from repro.core import RewardConfig

        bandit = self._bandit(reward=RewardConfig(mode="queue_inclusive", queue_weight=1.0))
        bandit.observe({"x": 1.0}, "H0", 10.0, queue_seconds=5.0)
        bandit.observe({"x": 2.0}, "H0", 20.0, queue_seconds=10.0)
        # Targets were 15 and 30, i.e. effective runtime = 15x.
        assert bandit.model_for("H0").predict(np.asarray([3.0])) == pytest.approx(45.0)
        # The history keeps the raw decomposition.
        assert [rec.queue_seconds for rec in bandit.history] == [5.0, 10.0]
        assert [rec.runtime_seconds for rec in bandit.history] == [10.0, 20.0]

    def test_observe_batch_accepts_queue_delays(self):
        from repro.core import RewardConfig

        batched = self._bandit(reward=RewardConfig(mode="queue_inclusive"))
        batched.observe_batch(
            [{"x": 1.0}, {"x": 2.0}], ["H0", "H0"], [10.0, 20.0], queues_seconds=[5.0, 10.0]
        )
        sequential = self._bandit(reward=RewardConfig(mode="queue_inclusive"))
        sequential.observe({"x": 1.0}, "H0", 10.0, queue_seconds=5.0)
        sequential.observe({"x": 2.0}, "H0", 20.0, queue_seconds=10.0)
        x = np.asarray([4.0])
        assert batched.model_for("H0").predict(x) == pytest.approx(
            sequential.model_for("H0").predict(x)
        )

    def test_observe_batch_queue_length_mismatch(self):
        bandit = self._bandit()
        with pytest.raises(ValueError, match="queue delays"):
            bandit.observe_batch([{"x": 1.0}], ["H0"], [10.0], queues_seconds=[1.0, 2.0])


class TestSlowdownAwareObservations:
    """Opt-in slowdown-inclusive reward shaping: interference-penalised targets."""

    def _bandit(self, reward=None):
        from repro.core import GreedyPolicy

        return BanditWare(
            catalog=ndp_catalog(),
            feature_names=["x"],
            policy=GreedyPolicy(),
            seed=0,
            reward=reward,
        )

    def test_reward_config_validates_mode_and_weight(self):
        from repro.core import RewardConfig

        config = RewardConfig(mode="slowdown_inclusive", slowdown_weight=2.0)
        assert config.slowdown_aware and not config.queue_aware
        with pytest.raises(ValueError, match="slowdown_weight"):
            RewardConfig(mode="slowdown_inclusive", slowdown_weight=-1.0)
        with pytest.raises(ValueError, match="reward mode"):
            RewardConfig(mode="interference")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "mode, field",
        [("queue_inclusive", "queue_weight"), ("slowdown_inclusive", "slowdown_weight")],
    )
    def test_reward_weights_must_be_finite(self, mode, field, value):
        from repro.core import RewardConfig

        with pytest.raises(ValueError, match=field):
            RewardConfig(mode=mode, **{field: value})

    def test_effective_runtime_charges_interference_seconds(self):
        from repro.core import RewardConfig

        config = RewardConfig(mode="slowdown_inclusive", slowdown_weight=1.0)
        # observed 20s at slowdown 2.0 means 10s planned: charge 10s again.
        assert config.effective_runtime(20.0, slowdown=2.0) == pytest.approx(30.0)
        # half weight charges half the damage.
        half = RewardConfig(mode="slowdown_inclusive", slowdown_weight=0.5)
        assert half.effective_runtime(20.0, slowdown=2.0) == pytest.approx(25.0)
        # no or unit slowdown adds nothing; runtime mode is bit-identical.
        assert config.effective_runtime(20.0) == 20.0
        assert config.effective_runtime(20.0, slowdown=1.0) == 20.0
        assert RewardConfig().effective_runtime(20.0, slowdown=3.0) == 20.0

    def test_invalid_slowdown_rejected_in_every_mode(self):
        from repro.core import RewardConfig

        for config in (RewardConfig(), RewardConfig(mode="slowdown_inclusive")):
            with pytest.raises(ValueError, match="slowdown"):
                config.effective_runtime(10.0, slowdown=0.0)
            with pytest.raises(ValueError, match="slowdown"):
                config.effective_runtime(10.0, slowdown=float("nan"))

    def test_default_mode_ignores_slowdown(self):
        plain = self._bandit()
        plain.observe({"x": 1.0}, "H0", 10.0, slowdown=3.0)
        plain.observe({"x": 2.0}, "H0", 20.0, slowdown=3.0)
        assert plain.model_for("H0").predict(np.asarray([3.0])) == pytest.approx(30.0)
        assert [rec.slowdown for rec in plain.history] == [3.0, 3.0]

    def test_slowdown_inclusive_mode_inflates_training_target(self):
        from repro.core import RewardConfig

        bandit = self._bandit(reward=RewardConfig(mode="slowdown_inclusive"))
        # observed 20/40 at slowdown 2.0: planned 10/20, targets 30/60 = 30x.
        bandit.observe({"x": 1.0}, "H0", 20.0, slowdown=2.0)
        bandit.observe({"x": 2.0}, "H0", 40.0, slowdown=2.0)
        assert bandit.model_for("H0").predict(np.asarray([3.0])) == pytest.approx(90.0)
        # The history keeps the raw decomposition.
        assert [rec.runtime_seconds for rec in bandit.history] == [20.0, 40.0]
        assert [rec.slowdown for rec in bandit.history] == [2.0, 2.0]

    def test_observe_batch_matches_sequential(self):
        from repro.core import RewardConfig

        batched = self._bandit(reward=RewardConfig(mode="slowdown_inclusive"))
        batched.observe_batch(
            [{"x": 1.0}, {"x": 2.0}],
            ["H0", "H0"],
            [20.0, 40.0],
            slowdowns=[2.0, None],
        )
        sequential = self._bandit(reward=RewardConfig(mode="slowdown_inclusive"))
        sequential.observe({"x": 1.0}, "H0", 20.0, slowdown=2.0)
        sequential.observe({"x": 2.0}, "H0", 40.0)
        x = np.asarray([4.0])
        assert batched.model_for("H0").predict(x) == pytest.approx(
            sequential.model_for("H0").predict(x)
        )

    def test_observe_batch_slowdown_length_mismatch(self):
        bandit = self._bandit()
        with pytest.raises(ValueError, match="slowdowns"):
            bandit.observe_batch([{"x": 1.0}], ["H0"], [10.0], slowdowns=[1.0, 2.0])
