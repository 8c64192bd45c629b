"""The replicated online simulation behind every figure in the paper.

One *simulation* plays Algorithm 1 for ``n_rounds`` rounds against a workload
model: each round a workflow is replayed from the evaluation dataset, the
bandit recommends a hardware configuration, the workload model's (noisy)
runtime is observed, and the per-arm models are refit.  After every round,
the bandit's current models are scored against that fixed evaluation
dataset:

* **RMSE** -- each evaluation row's runtime is predicted with the bandit's
  model for the hardware the row actually ran on;
* **accuracy** -- for each evaluation workflow, the bandit's (greedy,
  tolerant) recommendation is compared against the set of hardware whose true
  expected runtime is within the same tolerance of the optimum.

The whole run is repeated ``n_simulations`` times with independent random
streams; the figures plot the per-round mean and spread, against the
*full-fit* reference (per-arm least squares on the entire dataset).

Engine notes
------------
This class is a thin frontend over the unified experiment engine
(:mod:`repro.evaluation.engine`), which owns the round loop, the
completion→observe path and the seeding discipline.  Within one replication
the loop is sequential (each decision depends on the previous observation
through both the models and the random stream); across replications it is
not, and everything around it is batched:

* the paper's configuration (ε-greedy policy, OLS arm models) plays every
  replication of a block in lockstep, round by round on stacked state
  (:func:`~repro.evaluation.engine.run_online_block`); other policy × model
  pairs play one replication at a time;
* per-round scoring is deferred -- each replication records the per-round
  coefficient matrices and scores **all** rounds against the evaluation set
  with a handful of large matrix products at the end (``_score_series``);
* per-arm model refits are incremental (see
  :class:`~repro.core.models.LeastSquaresModel`);
* replications are independent and can run in a process pool
  (``SimulationConfig(n_workers=...)`` via
  :func:`~repro.evaluation.engine.run_replications`), one contiguous block
  per worker.  Each replication is driven by its own
  :class:`~numpy.random.SeedSequence` child, so the parallel path is
  bit-identical to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.models import ArmModel, LeastSquaresModel, RecursiveLeastSquaresModel, RidgeModel
from repro.core.policies import (
    BanditPolicy,
    DecayingEpsilonGreedyPolicy,
    GreedyPolicy,
    LinUCBPolicy,
    RandomPolicy,
    ThompsonSamplingPolicy,
)
from repro.core.selection import ToleranceConfig, TolerantSelector
from repro.dataframe import DataFrame
from repro.hardware import HardwareCatalog
from repro.utils.validation import check_count, check_non_negative, check_probability
from repro.workloads.base import WorkloadModel

__all__ = ["SimulationConfig", "SimulationResult", "OnlineSimulation"]


_ARM_MODEL_FACTORIES: Dict[str, Callable[[int], ArmModel]] = {
    "ols": lambda m: LeastSquaresModel(m),
    "ridge": lambda m: RidgeModel(m, alpha=1.0),
    "rls": lambda m: RecursiveLeastSquaresModel(m, regularization=1.0),
}


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one replicated online simulation.

    The defaults follow the paper: ``epsilon0 = 1``, ``decay = 0.99``, strict
    tolerance, per-arm batch least squares.
    """

    n_rounds: int = 50
    n_simulations: int = 10
    epsilon0: float = 1.0
    decay: float = 0.99
    tolerance_ratio: float = 0.0
    tolerance_seconds: float = 0.0
    policy: str = "epsilon_greedy"
    arm_model: str = "ols"
    evaluation_subsample: Optional[int] = None
    seed: int = 0
    #: Number of worker processes for the replication loop.  ``1`` (default)
    #: runs serially in-process; ``n`` splits the replications into ``n``
    #: contiguous blocks, one per pool process, with bit-identical results
    #: (each replication owns an independent child seed).  Falls back to
    #: threads where process pools are unavailable (e.g. sandboxed
    #: environments).
    n_workers: int = 1

    def __post_init__(self) -> None:
        check_count(self.n_rounds, "n_rounds")
        check_count(self.n_simulations, "n_simulations")
        check_count(self.n_workers, "n_workers")
        if self.policy not in ("epsilon_greedy", "greedy", "random", "linucb", "thompson"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.arm_model not in _ARM_MODEL_FACTORIES:
            raise ValueError(
                f"unknown arm_model {self.arm_model!r}; choose from {sorted(_ARM_MODEL_FACTORIES)}"
            )
        if self.policy in ("linucb", "thompson") and self.arm_model != "rls":
            raise ValueError(
                f"policy {self.policy!r} needs arm_model='rls', the only model that "
                f"keeps a posterior; got {self.arm_model!r}"
            )
        if self.evaluation_subsample is not None:
            check_count(self.evaluation_subsample, "evaluation_subsample")
        check_probability(self.epsilon0, "epsilon0")
        check_probability(self.decay, "decay")
        check_non_negative(self.tolerance_ratio, "tolerance_ratio")
        check_non_negative(self.tolerance_seconds, "tolerance_seconds")

    @property
    def tolerance(self) -> ToleranceConfig:
        return ToleranceConfig(ratio=self.tolerance_ratio, seconds=self.tolerance_seconds)

    def make_policy(self) -> BanditPolicy:
        """Instantiate the configured policy.

        The engine's policies skip the audit-only estimate bookkeeping on
        exploration rounds (``audit_estimates=False``); this does not change
        any decision.
        """
        if self.policy == "epsilon_greedy":
            return DecayingEpsilonGreedyPolicy(
                epsilon0=self.epsilon0,
                decay=self.decay,
                tolerance=self.tolerance,
                audit_estimates=False,
            )
        if self.policy == "greedy":
            return GreedyPolicy(tolerance=self.tolerance)
        if self.policy == "random":
            return RandomPolicy()
        if self.policy == "linucb":
            return LinUCBPolicy(alpha=1.0)
        return ThompsonSamplingPolicy()

    def make_arm_model_factory(self) -> Callable[[int], ArmModel]:
        return _ARM_MODEL_FACTORIES[self.arm_model]


@dataclass
class SimulationResult:
    """Per-round series across all replications, plus the reference lines.

    Attributes
    ----------
    rmse, accuracy:
        Arrays of shape ``(n_simulations, n_rounds)``.
    reference_rmse, reference_accuracy:
        Scores of the full-data fit (the paper's red/orange line).
    random_accuracy:
        The random-guess accuracy ``1 / |H|``.
    config:
        The configuration the simulation ran with.
    """

    rmse: np.ndarray
    accuracy: np.ndarray
    reference_rmse: float
    reference_accuracy: float
    random_accuracy: float
    config: SimulationConfig

    # ------------------------------------------------------------------ #
    @property
    def n_rounds(self) -> int:
        return self.rmse.shape[1]

    @property
    def n_simulations(self) -> int:
        return self.rmse.shape[0]

    @property
    def rounds(self) -> np.ndarray:
        """Round indices (1-based, as plotted in the paper)."""
        return np.arange(1, self.n_rounds + 1)

    def mean_rmse(self) -> np.ndarray:
        return self.rmse.mean(axis=0)

    def std_rmse(self) -> np.ndarray:
        return self.rmse.std(axis=0)

    def mean_accuracy(self) -> np.ndarray:
        return self.accuracy.mean(axis=0)

    def std_accuracy(self) -> np.ndarray:
        return self.accuracy.std(axis=0)

    def rmse_at(self, round_index: int) -> Tuple[float, float]:
        """Mean and std of the RMSE at a (1-based) round."""
        idx = self._round_to_index(round_index)
        return float(self.mean_rmse()[idx]), float(self.std_rmse()[idx])

    def accuracy_at(self, round_index: int) -> Tuple[float, float]:
        """Mean and std of the accuracy at a (1-based) round."""
        idx = self._round_to_index(round_index)
        return float(self.mean_accuracy()[idx]), float(self.std_accuracy()[idx])

    def rmse_gap_to_reference(self, round_index: int) -> float:
        """Relative gap ``(rmse - reference) / reference`` at a round.

        The paper's headline claim is a gap of ~17.9 % at round 25 and
        ~12.6 % at round 50 for the BP3D experiment.
        """
        mean, _ = self.rmse_at(round_index)
        if self.reference_rmse == 0:
            return float("inf") if mean > 0 else 0.0
        return (mean - self.reference_rmse) / self.reference_rmse

    def _round_to_index(self, round_index: int) -> int:
        if not 1 <= round_index <= self.n_rounds:
            raise ValueError(
                f"round_index must be in [1, {self.n_rounds}], got {round_index}"
            )
        return round_index - 1

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports and tests.

        :meth:`~repro.evaluation.experiment.ExperimentResult.summary` extends
        them, and ``run-experiment`` prints that.
        """
        final = self.n_rounds
        return {
            "n_rounds": float(self.n_rounds),
            "n_simulations": float(self.n_simulations),
            "final_rmse_mean": self.rmse_at(final)[0],
            "final_accuracy_mean": self.accuracy_at(final)[0],
            "reference_rmse": self.reference_rmse,
            "reference_accuracy": self.reference_accuracy,
            "random_accuracy": self.random_accuracy,
            "final_rmse_gap": self.rmse_gap_to_reference(final),
        }


class OnlineSimulation:
    """Replicated online evaluation of a recommender configuration.

    Parameters
    ----------
    workload:
        The application model workflows and runtimes are drawn from.
    catalog:
        Hardware configurations (the arm space).
    evaluation_frame:
        The fixed historical dataset the per-round RMSE and accuracy are
        scored against.  Must contain the workload's feature columns plus
        ``hardware`` and ``runtime_seconds``.
    config:
        Simulation parameters.
    feature_names:
        Context features to use; defaults to all of the workload's features.
        Experiment 3 uses only ``size`` and Figure 6 uses only ``area``.

    Each round's incoming workflow is a row drawn uniformly from the
    evaluation dataset -- the paper replays its historical datasets, and
    this also keeps the subset experiments (Experiment 3) training on the
    truncated data -- and its runtime is drawn from that row's precomputed
    expected runtime and noise scale, exactly as
    :meth:`~repro.workloads.base.WorkloadModel.observed_runtime` draws it.
    A workload whose class overrides ``observed_runtime`` is refused with
    ``TypeError``, because the replay would silently ignore the override.
    """

    def __init__(
        self,
        workload: WorkloadModel,
        catalog: HardwareCatalog,
        evaluation_frame: DataFrame,
        config: Optional[SimulationConfig] = None,
        feature_names: Optional[Sequence[str]] = None,
    ):
        if type(workload).observed_runtime is not WorkloadModel.observed_runtime:
            raise TypeError(
                f"{type(workload).__name__} overrides observed_runtime, which the "
                "online replay ignores: it draws every runtime from the evaluation "
                "rows' expected runtimes and noise scales"
            )
        self.workload = workload
        self.catalog = catalog
        self.config = config or SimulationConfig()
        self.feature_names = list(feature_names) if feature_names else list(workload.feature_names)
        required = {"hardware", "runtime_seconds", *self.feature_names}
        missing = [c for c in required if c not in evaluation_frame]
        if missing:
            raise KeyError(
                f"evaluation frame is missing columns {sorted(missing)}; "
                f"has {evaluation_frame.columns}"
            )
        self.evaluation_frame = evaluation_frame
        self._prepare_evaluation_arrays()

    # ------------------------------------------------------------------ #
    def _prepare_evaluation_arrays(self) -> None:
        frame = self.evaluation_frame
        cfg = self.config
        if cfg.evaluation_subsample is not None and cfg.evaluation_subsample < len(frame):
            rng = np.random.default_rng(cfg.seed + 987_654_321)
            idx = rng.choice(len(frame), size=cfg.evaluation_subsample, replace=False)
            frame = frame.take(np.sort(idx))
        self._eval_frame = frame
        raw_X = frame.to_numpy(self.feature_names, dtype=float)
        # Feature standardisation.  The runtime model stays linear (scaling is
        # an invertible linear map), but the early under-determined
        # least-squares fits become far better conditioned when features such
        # as `area` (~1e6 m²) and `run_max_mem_rss_bytes` (~1e10) are brought
        # to comparable magnitudes.
        std = raw_X.std(axis=0)
        self._X_eval = (raw_X - raw_X.mean(axis=0)) / np.where(std > 0, std, 1.0)
        self._y_eval = frame["runtime_seconds"].to_numpy(float)
        hardware_names = frame["hardware"].values
        self._hw_idx = np.asarray(
            [self.catalog.index_of(str(name)) for name in hardware_names], dtype=int
        )
        # Workflow replay pool: the features of every evaluation row, in the
        # workload's own feature space.
        names = [name for name in self.workload.feature_names if name in frame]
        columns = [(name, frame[name].values) for name in names]
        pool = [{name: float(values[i]) for name, values in columns} for i in range(len(frame))]
        # Ground-truth expected runtimes (and noise scales) of every
        # evaluation workflow on every arm.  When a round replays pool row
        # ``i`` on arm ``j``, the observation is ``max(normal(truth, sigma),
        # ...)`` exactly as WorkloadModel.observed_runtime computes it.
        n_eval, n_arms = len(frame), len(self.catalog)
        truth = np.empty((n_eval, n_arms))
        sigma = np.empty((n_eval, n_arms))
        for i, features in enumerate(pool):
            for j, hw in enumerate(self.catalog):
                truth[i, j] = expected = self.workload.expected_runtime(features, hw)
                sigma[i, j] = self.workload.noise_scale(expected)
        self._truth = truth
        self._pool_sigma = sigma
        # Arms sorted most-efficient first, footprint ties included, exactly
        # as the bandit's tolerant selection orders them, and each arm's
        # position in that order -- the batched scorer works in
        # efficiency-ordered arm layout.
        order = TolerantSelector().efficiency_order(self.catalog)
        self._efficiency_order = order
        inverse = np.empty(n_arms, dtype=np.intp)
        inverse[order] = np.arange(n_arms)
        self._efficiency_pos = inverse
        # Acceptable arms per evaluation workflow under the configured tolerance.
        tol = self.config.tolerance
        limits = tol.limit(truth.min(axis=1))
        self._acceptable = truth <= limits[:, None]
        # Layouts used by the batched scorer: features x rows, arms x rows.
        self._XT_eval = np.ascontiguousarray(self._X_eval.T)
        self._acceptable_T = np.ascontiguousarray(self._acceptable.T)
        # Pool row i is evaluation row i, so its context is row i of the
        # standardised matrix.
        self._workflow_pool = pool

    # ------------------------------------------------------------------ #
    def _score_models(self, W: np.ndarray, b: np.ndarray) -> Tuple[float, float]:
        """Vectorised RMSE + tolerant-selection accuracy on the evaluation set."""
        rmse, accuracy = self._score_series(W[None, :, :], np.asarray(b, dtype=float)[None, :])
        return float(rmse[0]), float(accuracy[0])

    def _score_series(self, W_hist: np.ndarray, b_hist: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Score a whole series of per-round coefficient matrices at once.

        ``W_hist`` has shape ``(n_rounds, n_arms, n_features)`` and ``b_hist``
        ``(n_rounds, n_arms)``.  Returns per-round RMSE and accuracy arrays.
        Rounds are processed in chunks so the ``(rounds, n_eval, n_arms)``
        prediction tensor stays within a bounded memory footprint.
        """
        R = W_hist.shape[0]
        E = len(self._y_eval)
        K = W_hist.shape[1]
        rows = np.arange(E)
        rmse = np.empty(R)
        accuracy = np.empty(R)
        tol = self.config.tolerance
        strict = tol.is_strict
        order = self._efficiency_order
        # Position of each evaluation row's own arm in efficiency-ordered layout.
        own_pos = self._efficiency_pos[self._hw_idx]
        # Correctness of each (efficiency-ordered) arm per evaluation row;
        # boolean planes keep the selection logic byte-wide.
        acceptable_ord = self._acceptable_T[order]
        chunk = max(1, int(4_000_000 // max(E * K, 1)))
        for start in range(0, R, chunk):
            stop = min(start + chunk, R)
            n_chunk = stop - start
            # Work with arms sorted most-efficient first: picking the first
            # candidate along that axis IS the most-efficient-candidate rule.
            W_ord = W_hist[start:stop][:, order, :]
            b_ord = b_hist[start:stop][:, order]
            # One large GEMM instead of `n_chunk` tiny batched ones:
            # (r*k, m) @ (m, e), then viewed as (r, k, e).
            flat = W_ord.reshape(n_chunk * K, -1) @ self._XT_eval
            flat += b_ord.reshape(n_chunk * K, 1)
            preds = flat.reshape(n_chunk, K, E)
            predicted = preds[:, own_pos, rows]
            diff = predicted - self._y_eval
            rmse[start:stop] = np.sqrt(np.einsum("re,re->r", diff, diff) / E)

            if strict and K == 3:
                # Strict tolerance, three arms (the paper's NDP triple): the
                # chosen arm is the efficiency-first minimum, resolvable with
                # two pairwise comparisons and no explicit min/limit planes.
                p0, p1, p2 = preds[:, 0, :], preds[:, 1, :], preds[:, 2, :]
                c0 = (p0 <= p1) & (p0 <= p2)
                c1 = p1 <= p2
                correct = (c0 & acceptable_ord[0]) | (
                    ~c0 & ((c1 & acceptable_ord[1]) | (~c1 & acceptable_ord[2]))
                )
            else:
                # Reduce over the (small) arm axis as a chain of elementwise
                # minima on contiguous planes -- faster than a strided reduce.
                fastest = preds[:, 0, :].copy()
                for pos in range(1, K):
                    np.minimum(fastest, preds[:, pos, :], out=fastest)
                limit = np.asarray(tol.limit(fastest))
                # First candidate in efficiency order wins; the clamped
                # tolerance limit guarantees at least one.
                correct = np.broadcast_to(acceptable_ord[K - 1], (n_chunk, E))
                for pos in range(K - 2, -1, -1):
                    correct = np.where(
                        preds[:, pos, :] <= limit, acceptable_ord[pos], correct
                    )
            accuracy[start:stop] = np.count_nonzero(correct, axis=1) / E
        return rmse, accuracy

    def _reference_scores(self) -> Tuple[float, float]:
        """Full-data per-arm least squares, fitted in the same (scaled) space."""
        n_features = len(self.feature_names)
        W = np.zeros((len(self.catalog), n_features))
        b = np.zeros(len(self.catalog))
        for j in range(len(self.catalog)):
            mask = self._hw_idx == j
            if not np.any(mask):
                continue
            model = LeastSquaresModel(n_features)
            model.fit(self._X_eval[mask], self._y_eval[mask])
            W[j] = model.coefficients
            b[j] = model.intercept
        return self._score_models(W, b)

    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Run all replications (serial or pooled) and return the collected series.

        The replication loop, its seeding discipline and the process-pool
        plumbing are the engine's (:mod:`repro.evaluation.engine`); this
        frontend contributes the scoring and the result container.
        """
        from repro.evaluation.engine import run_replications

        cfg = self.config
        outcomes = run_replications(self)
        rmse_series = np.vstack([rmse for rmse, _ in outcomes])
        accuracy_series = np.vstack([acc for _, acc in outcomes])
        reference_rmse, reference_accuracy = self._reference_scores()
        return SimulationResult(
            rmse=rmse_series,
            accuracy=accuracy_series,
            reference_rmse=reference_rmse,
            reference_accuracy=reference_accuracy,
            random_accuracy=1.0 / len(self.catalog),
            config=cfg,
        )
