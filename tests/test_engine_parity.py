"""Batch/sequential and parallel/serial parity of the evaluation engine.

The engine's contract is that none of its speed machinery changes results:

* ``observe_batch`` reproduces the final model state of sequential
  ``observe`` calls;
* ``n_workers > 1`` reproduces the serial per-round RMSE/accuracy series
  bit for bit, also on the thread fallback;
* ``run_online_replication``'s replay of the evaluation pool reproduces a
  test-local loop that draws every runtime through the workload's
  ``observed_runtime``, bit for bit;
* the lockstep block reproduces ``run_online_replication`` bit for bit.
  It is compared in-process, never against a stored file: scoring bits
  depend on the host's BLAS kernels;
* the ε-greedy policy decides the same with and without its audit
  estimates;
* the incremental normal-equation solver matches the full per-round lstsq
  refits.
"""

import numpy as np
import pytest

from repro.core.banditware import BanditWare
from repro.core.models import LeastSquaresModel, RecursiveLeastSquaresModel, RidgeModel
from repro.core.models.linear import min_norm_solution
from repro.core.policies import DecayingEpsilonGreedyPolicy
from repro.core.selection import ToleranceConfig
from repro.evaluation import EXPERIMENT_NAMES, OnlineSimulation, SimulationConfig, build_experiment
from repro.evaluation.engine import (
    replication_sequences,
    run_online_block,
    run_online_replication,
)
from repro.hardware import ndp_catalog
from repro.workloads import LinearRuntimeWorkload, TraceGenerator


@pytest.fixture
def linear_setup(ndp):
    workload = LinearRuntimeWorkload.random(ndp, n_features=2, seed=3, noise_sigma=0.5)
    frame = TraceGenerator(workload, ndp, seed=17).generate_frame(30, grid=True)
    return workload, frame


def _random_features(rng, n=1):
    batch = [{"x0": float(rng.uniform(0, 100)), "x1": float(rng.uniform(0, 100))} for _ in range(n)]
    return batch if n > 1 else batch[0]


class TestBatchSequentialParity:
    def _bandit(self, ndp, seed=11):
        return BanditWare(catalog=ndp, feature_names=["x0", "x1"], seed=seed)

    def test_observe_batch_matches_sequential(self, ndp, linear_workload):
        rng = np.random.default_rng(1)
        batch = _random_features(rng, 20)
        hardware = [ndp[int(rng.integers(len(ndp)))].name for _ in batch]
        runtimes = [
            linear_workload.observed_runtime(f, ndp[hw], np.random.default_rng(i))
            for i, (f, hw) in enumerate(zip(batch, hardware))
        ]
        a, b = self._bandit(ndp), self._bandit(ndp)
        for f, hw, rt in zip(batch, hardware, runtimes):
            a.observe(f, hw, rt)
        b.observe_batch(batch, hardware, runtimes)
        for model_a, model_b in zip(a.models, b.models):
            assert np.array_equal(model_a.coefficients, model_b.coefficients)
            assert model_a.intercept == model_b.intercept
            assert model_a.n_observations == model_b.n_observations
        assert len(a.history) == len(b.history)
        assert [h.hardware for h in a.history] == [h.hardware for h in b.history]

    def test_observe_batch_validates_before_mutating(self, ndp):
        bandit = self._bandit(ndp)
        with pytest.raises(ValueError):
            bandit.observe_batch(
                [{"x0": 1.0, "x1": 2.0}, {"x0": 3.0, "x1": 4.0}],
                ["H0", "H1"],
                [5.0, -1.0],
            )
        assert all(m.n_observations == 0 for m in bandit.models)

    def test_observe_batch_length_mismatch(self, ndp):
        with pytest.raises(ValueError):
            self._bandit(ndp).observe_batch([{"x0": 1.0, "x1": 2.0}], ["H0", "H1"], [1.0])

    def test_observe_batch_rejects_non_finite_context(self, ndp):
        bandit = self._bandit(ndp)
        with pytest.raises(ValueError, match="non-finite"):
            bandit.observe_batch(
                [{"x0": float("nan"), "x1": 1.0}], ["H0"], [10.0]
            )
        assert all(m.n_observations == 0 for m in bandit.models)

    def test_observe_vector_rejects_out_of_range_arm_index(self, ndp):
        bandit = self._bandit(ndp)
        with pytest.raises(IndexError):
            bandit.observe_vector(np.asarray([1.0, 2.0]), -1, 5.0)
        with pytest.raises(IndexError):
            bandit.observe_vector(np.asarray([1.0, 2.0]), len(ndp), 5.0)

    def test_custom_nonlinear_model_estimates_go_through_predict_vector(self, ndp):
        from repro.core.models.base import ArmModel
        from repro.core.policies.base import BanditPolicy

        class SquaredModel(ArmModel):
            def __init__(self, n_features):
                super().__init__(n_features)
                self._w = np.ones(n_features)

            def update_vector(self, context, runtime):
                self._n_observations += 1

            def predict_vector(self, context):
                return float((self._w @ context) ** 2)

            @property
            def coefficients(self):
                return self._w.copy()

            @property
            def intercept(self):
                return 0.0

        models = [SquaredModel(2) for _ in ndp]
        estimates = BanditPolicy.estimate_runtimes(np.asarray([2.0, 1.0]), models, ndp)
        # The estimates are the model's own (9.0), not a linear read of its
        # coefficients (3.0); the checked predict gives the same.
        assert all(v == pytest.approx(9.0) for v in estimates.values())
        assert models[0].predict([2.0, 1.0]) == pytest.approx(9.0)

    def test_warm_start_matches_sequential_observes(self, ndp, linear_workload):
        frame = TraceGenerator(linear_workload, ndp, seed=5).generate_frame(24)
        batched = self._bandit(ndp)
        batched.warm_start(frame)
        sequential = self._bandit(ndp)
        for row in frame.iterrows():
            features = {"x0": float(row["x0"]), "x1": float(row["x1"])}
            sequential.observe(features, str(row["hardware"]), float(row["runtime_seconds"]))
        for model_a, model_b in zip(batched.models, sequential.models):
            assert np.allclose(model_a.coefficients, model_b.coefficients, rtol=1e-10)
            assert model_a.intercept == pytest.approx(model_b.intercept, rel=1e-10)


class TestWorkerParity:
    def _series(self, linear_setup, ndp, n_workers, **overrides):
        workload, frame = linear_setup
        config = SimulationConfig(
            n_rounds=12, n_simulations=5, seed=9, n_workers=n_workers, **overrides
        )
        return OnlineSimulation(workload, ndp, frame, config=config).run()

    # Five replications over 2 or 3 workers make uneven contiguous blocks.
    @pytest.mark.parametrize("n_workers", [2, 3])
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"policy": "thompson", "arm_model": "rls"}],
        ids=["lockstep", "per-replication"],
    )
    def test_parallel_bit_identical_to_serial(self, linear_setup, ndp, overrides, n_workers):
        serial = self._series(linear_setup, ndp, 1, **overrides)
        parallel = self._series(linear_setup, ndp, n_workers, **overrides)
        assert np.array_equal(serial.rmse, parallel.rmse)
        assert np.array_equal(serial.accuracy, parallel.accuracy)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"policy": "thompson", "arm_model": "rls"}],
        ids=["lockstep", "per-replication"],
    )
    def test_thread_fallback_bit_identical_to_serial(
        self, linear_setup, ndp, overrides, monkeypatch
    ):
        import concurrent.futures

        attempts = []

        def unavailable(*args, **kwargs):
            attempts.append(kwargs["max_workers"])
            raise OSError("process pools are unavailable here")

        serial = self._series(linear_setup, ndp, 1, **overrides)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
        fallback = self._series(linear_setup, ndp, 2, **overrides)
        assert attempts == [2]
        assert np.array_equal(serial.rmse, fallback.rmse)
        assert np.array_equal(serial.accuracy, fallback.accuracy)

    def test_n_workers_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_workers=0)


class _LognormalRuntimeWorkload(LinearRuntimeWorkload):
    """Overrides ``observed_runtime``, which the online replay would ignore."""

    def observed_runtime(self, features, hardware, rng=None):
        return self.expected_runtime(features, hardware) * float(rng.lognormal(0.0, 0.1))


def _assert_block_matches_reference(simulation):
    cfg = simulation.config
    sequences = replication_sequences(cfg.seed, cfg.n_simulations)
    block = run_online_block(simulation, sequences)
    reference = [run_online_replication(simulation, seq) for seq in sequences]
    assert len(block) == len(reference) == cfg.n_simulations
    for (rmse, accuracy), (ref_rmse, ref_accuracy) in zip(block, reference):
        assert np.array_equal(rmse, ref_rmse)
        assert np.array_equal(accuracy, ref_accuracy)


def _observed_runtime_reference(simulation, seed_seq):
    """One replication that draws every runtime through ``observed_runtime``.

    The test-local reference for the engine's replay: the same draws in the
    same order (pool row, the policy's draws, runtime noise), but each
    runtime comes from the workload model itself instead of from the
    precomputed expectation and noise matrices.
    """
    cfg = simulation.config
    rng = np.random.default_rng(seed_seq)
    bandit = BanditWare(
        catalog=simulation.catalog,
        feature_names=simulation.feature_names,
        policy=cfg.make_policy(),
        arm_model_factory=cfg.make_arm_model_factory(),
        seed=rng,
    )
    n_arms, n_features = len(simulation.catalog), len(simulation.feature_names)
    W_hist = np.zeros((cfg.n_rounds, n_arms, n_features))
    b_hist = np.zeros((cfg.n_rounds, n_arms))
    for t in range(cfg.n_rounds):
        row = int(rng.integers(len(simulation._workflow_pool)))
        context = simulation._X_eval[row]
        hardware = bandit.recommend_vector(context).hardware
        runtime = simulation.workload.observed_runtime(
            simulation._workflow_pool[row], hardware, rng
        )
        bandit.observe_vector(context, hardware, runtime)
        for arm, model in enumerate(bandit.models):
            W_hist[t, arm] = model.coefficients
            b_hist[t, arm] = model.intercept
    return simulation._score_series(W_hist, b_hist)


class TestReplayMatchesTheWorkloadModel:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"epsilon0": 0.5, "decay": 0.9, "tolerance_ratio": 0.1, "tolerance_seconds": 2.0},
            {"policy": "thompson", "arm_model": "rls"},
        ],
        ids=["paper", "tolerant", "per-replication"],
    )
    def test_replay_draws_what_observed_runtime_draws(self, linear_setup, ndp, overrides):
        workload, frame = linear_setup
        config = SimulationConfig(**{"n_rounds": 30, "n_simulations": 2, "seed": 4, **overrides})
        simulation = OnlineSimulation(workload, ndp, frame, config=config)
        for seq in replication_sequences(config.seed, config.n_simulations):
            rmse, accuracy = run_online_replication(simulation, seq)
            ref_rmse, ref_accuracy = _observed_runtime_reference(simulation, seq)
            assert np.array_equal(rmse, ref_rmse)
            assert np.array_equal(accuracy, ref_accuracy)


class TestLockstepParity:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_block_matches_reference_on_every_experiment(self, name, seed):
        definition = build_experiment(name, n_simulations=6, n_rounds=40, seed=seed)
        _assert_block_matches_reference(definition.simulation())

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            # Fewer rounds than arms: the run never leaves the seeding rounds.
            {"n_rounds": 2},
            {"epsilon0": 0.5, "decay": 0.9, "tolerance_ratio": 0.1, "tolerance_seconds": 2.0},
        ],
        ids=["paper", "seeding-only", "tolerant"],
    )
    def test_block_matches_reference_on_linear_workload(self, linear_setup, ndp, overrides):
        workload, frame = linear_setup
        config = SimulationConfig(**{"n_rounds": 30, "n_simulations": 5, "seed": 4, **overrides})
        _assert_block_matches_reference(OnlineSimulation(workload, ndp, frame, config=config))

    def test_custom_observed_runtime_is_refused(self, ndp):
        workload = _LognormalRuntimeWorkload.random(ndp, n_features=2, seed=3)
        frame = TraceGenerator(workload, ndp, seed=17).generate_frame(30, grid=True)
        with pytest.raises(TypeError, match="_LognormalRuntimeWorkload overrides observed_runtime"):
            OnlineSimulation(workload, ndp, frame)

    def test_block_rejects_other_policy_model_pairs(self, linear_setup, ndp):
        workload, frame = linear_setup
        config = SimulationConfig(n_rounds=5, n_simulations=2, policy="thompson", arm_model="rls")
        simulation = OnlineSimulation(workload, ndp, frame, config=config)
        with pytest.raises(ValueError, match="epsilon_greedy"):
            run_online_block(simulation, replication_sequences(0, 2))


class TestSelectorFastPath:
    def test_policy_fast_path_matches_audit_path(self, ndp):
        models = []
        rng = np.random.default_rng(6)
        for _ in ndp:
            model = LeastSquaresModel(2)
            X = rng.uniform(0, 10, size=(8, 2))
            model.fit(X, rng.uniform(1, 100, size=8))
            models.append(model)
        for seed in range(20):
            audit = DecayingEpsilonGreedyPolicy(
                epsilon0=0.5, tolerance=ToleranceConfig(seconds=10.0), audit_estimates=True
            )
            fast = DecayingEpsilonGreedyPolicy(
                epsilon0=0.5, tolerance=ToleranceConfig(seconds=10.0), audit_estimates=False
            )
            context = np.asarray([5.0, 2.0])
            d1 = audit.select(context, models, ndp, np.random.default_rng(seed))
            d2 = fast.select(context, models, ndp, np.random.default_rng(seed))
            assert d1.arm_index == d2.arm_index
            assert d1.explored == d2.explored


class TestIncrementalSolverParity:
    def test_matches_full_refit_on_stream(self, rng):
        incremental = LeastSquaresModel(3)
        rows, targets = [], []
        for i in range(30):
            x = rng.uniform(0, 10, size=3)
            y = float(2.0 * x[0] - x[1] + 0.5 * x[2] + 7.0 + rng.normal(0, 0.1))
            incremental.update_vector(x, y)
            # The seed behaviour: minimum-norm lstsq on the stacked [x | 1] design.
            rows.append(np.append(x, 1.0))
            targets.append(y)
            full = min_norm_solution(np.vstack(rows), np.asarray(targets))
            if i < 3:
                # Under-determined rounds share the exact lstsq path.
                assert np.array_equal(incremental.coefficients, full[:-1])
            else:
                assert np.allclose(incremental.coefficients, full[:-1], rtol=1e-6)
                assert incremental.intercept == pytest.approx(full[-1], rel=1e-6)

    def test_repeated_contexts_fall_back_gracefully(self):
        model = LeastSquaresModel(2)
        for _ in range(6):
            model.update_vector(np.array([1.0, 2.0]), 10.0)  # rank-deficient gram
        assert np.isfinite(model.coefficients).all()
        assert model.predict([1.0, 2.0]) == pytest.approx(10.0, rel=1e-6)

    def test_update_rows_matches_sequential(self, rng):
        X = rng.uniform(0, 10, size=(15, 2))
        y = rng.uniform(1, 50, size=15)
        for cls in (LeastSquaresModel, RidgeModel, RecursiveLeastSquaresModel):
            one = cls(2)
            two = cls(2)
            for row, value in zip(X, y):
                one.update_vector(row, float(value))
            two.update_rows(X, y)
            assert np.array_equal(one.coefficients, two.coefficients)
            assert one.intercept == two.intercept
