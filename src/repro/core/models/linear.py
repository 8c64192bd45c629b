"""Batch ordinary-least-squares per-arm model (the paper's Algorithm 1, line 11).

Algorithm 1 literally re-stacks the arm's full data store and re-solves the
least-squares problem after every observation, which is O(n·m²) per round.
This implementation keeps the same observable behaviour while maintaining the
normal equations ``XᵀX`` and ``Xᵀy`` incrementally (a rank-1 update per
observation), so once the system is over-determined each refit is an O(m³)
solve of an m×m system instead of a decomposition of the full n×m design.
The under-determined early rounds -- and a singular gram -- still take the
minimum-norm solution of the stored design (:func:`min_norm_solution`),
reproducing the seed implementation bit for bit.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.models.base import ArmModel


def _load_lapack(linalg_dir: Optional[str] = None) -> Tuple[Callable, Callable, Callable]:
    """scipy's compiled ``(dposv, dgelsd, dgelsd_lwork)`` LAPACK wrappers.

    ``import scipy.linalg`` would about double this package's cold start: its
    ``__init__`` imports much of numpy, ``numpy.f2py`` included.  Unless it
    is already loaded, only the compiled ``_flapack`` extension in
    ``linalg_dir`` (default: scipy's ``linalg`` directory) is loaded, under
    its real name, so a later ``import scipy.linalg.lapack`` gets the same
    wrappers.  ``_flapack`` is private to scipy: without that file the
    public module is imported.
    """
    scipy_spec = None if "scipy.linalg" in sys.modules else importlib.util.find_spec("scipy")
    if scipy_spec is not None:
        linalg_dir = linalg_dir or os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
        found = importlib.machinery.PathFinder.find_spec("_flapack", [linalg_dir])
        if found is not None:
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", found.origin)
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
            return flapack.dposv, flapack.dgelsd, flapack.dgelsd_lwork
    from scipy.linalg import lapack

    return lapack.dposv, lapack.dgelsd, lapack.dgelsd_lwork


_dposv, _dgelsd, _dgelsd_lwork = _load_lapack()

#: Workspace sizes for dgelsd, keyed by (n_rows, n_params).
_GELSD_WORKSPACE: Dict[Tuple[int, int], Tuple[int, int]] = {}

__all__ = ["LeastSquaresModel", "min_norm_solution", "solve_least_squares"]


def min_norm_solution(design: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of ``design @ θ ≈ targets``.

    Uses the dgelsd LAPACK driver directly -- dgelsd with numpy's default
    cutoff is bit-identical to ``numpy.linalg.lstsq(..., rcond=None)`` (same
    routine, same inputs) without the wrapper overhead.  ``lstsq`` is only
    the retry when dgelsd reports a failure.
    """
    n, p = design.shape
    key = (n, p)
    workspace = _GELSD_WORKSPACE.get(key)
    if workspace is None:
        lwork, iwork, _ = _dgelsd_lwork(n, p, 1)
        workspace = (int(lwork), int(iwork))
        _GELSD_WORKSPACE[key] = workspace
    rhs = np.zeros(max(n, p))
    rhs[:n] = targets
    rcond = np.finfo(np.float64).eps * max(n, p)
    solution, _, _, info = _dgelsd(
        design, rhs, workspace[0], workspace[1], rcond, False, True
    )
    if info == 0:
        return solution[:p]
    solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
    return solution


def solve_least_squares(
    gram: np.ndarray,
    xty: np.ndarray,
    n_rows: int,
    rows: Callable[[], Tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """The least-squares solution of ``n_rows`` observations with normal equations ``(gram, xty)``.

    Over-determined fits solve the m×m normal equations (Cholesky via LAPACK
    dposv).  Under-determined fits keep the minimum-norm solution the
    normal equations cannot express, and a (semi-)singular gram -- e.g.
    repeated contexts -- falls back to it too; only then is ``rows()``
    called, returning the stored ``(design, targets)`` in arrival order.
    """
    if n_rows >= gram.shape[0]:
        # info > 0 flags a (semi-)singular gram.
        _, solution, info = _dposv(gram, xty, lower=0)
        if info == 0 and np.isfinite(solution).all():
            return solution
    return min_norm_solution(*rows())


class LeastSquaresModel(ArmModel):
    """Refit ``w, b = argmin Σ (R - (wᵀx + b))²`` over all stored observations.

    The normal equations are kept across updates and solved once the fit is
    over-determined (:func:`solve_least_squares`); the full data are stored
    too, for the minimum-norm under-determined fits.
    :meth:`update_rows` ingests every row and refits once.

    Parameters
    ----------
    n_features:
        Context dimensionality.
    """

    def __init__(self, n_features: int):
        super().__init__(n_features)
        self._w = np.zeros(self.n_features)
        self._b = 0.0
        p = self.n_features + 1
        self._gram = np.zeros((p, p))
        self._xty = np.zeros(p)
        # Stored data: rows of the augmented design [x | 1] in a
        # capacity-doubling buffer, so refits never re-stack Python lists.
        self._capacity = 8
        self._design = np.empty((self._capacity, p))
        self._targets = np.empty(self._capacity)
        self._outer_buf = np.empty((p, p))

    # ------------------------------------------------------------------ #
    @property
    def coefficients(self) -> np.ndarray:
        return self._w.copy()

    @property
    def intercept(self) -> float:
        return float(self._b)

    # ------------------------------------------------------------------ #
    def _grow(self, needed: int) -> None:
        if needed <= self._capacity:
            return
        while self._capacity < needed:
            self._capacity *= 2
        design = np.empty((self._capacity, self.n_features + 1))
        targets = np.empty(self._capacity)
        n = self._n_observations
        design[:n] = self._design[:n]
        targets[:n] = self._targets[:n]
        self._design = design
        self._targets = targets

    def _stored_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self._n_observations
        return self._design[:n], self._targets[:n]

    def _resolve(self) -> None:
        """Recompute coefficients after the data store / gram changed."""
        n = self._n_observations
        if not n:
            self._w = np.zeros(self.n_features)
            self._b = 0.0
        else:
            solution = solve_least_squares(self._gram, self._xty, n, self._stored_rows)
            self._w = solution[:-1]
            self._b = float(solution[-1])

    def _ingest(self, context: np.ndarray, runtime: float) -> None:
        n = self._n_observations
        self._grow(n + 1)
        row = self._design[n]
        row[: self.n_features] = context
        row[-1] = 1.0
        self._targets[n] = runtime
        np.multiply(row[:, None], row[None, :], out=self._outer_buf)
        self._gram += self._outer_buf
        self._xty += row * runtime
        self._n_observations = n + 1

    def update_vector(self, context: np.ndarray, runtime: float) -> None:
        self._ingest(context, runtime)
        self._resolve()

    def update_rows(self, X: np.ndarray, y: Sequence[float] | np.ndarray) -> None:
        """Ingest the checked rows with a single refit at the end.

        Rank-1 gram updates are applied in row order, so the final state is
        identical to sequential :meth:`update_vector` calls; only the
        intermediate solves are skipped.
        """
        for row, value in zip(X, y):
            self._ingest(row, float(value))
        if len(y):
            self._resolve()

    def fit(self, X: Sequence[Sequence[float]] | np.ndarray, y: Sequence[float] | np.ndarray) -> "LeastSquaresModel":
        """Replace the stored data with ``(X, y)`` and refit in one shot."""
        X, y = self._checked_rows(X, y)
        n = X.shape[0]
        p = self.n_features + 1
        self._n_observations = 0
        self._grow(max(n, 8))
        self._n_observations = n
        self._design[:n, : self.n_features] = X
        self._design[:n, -1] = 1.0
        self._targets[:n] = y
        if n:
            design = self._design[:n]
            self._gram = design.T @ design
            self._xty = design.T @ y
            self._resolve()
        else:
            self._gram = np.zeros((p, p))
            self._xty = np.zeros(p)
            self._w = np.zeros(self.n_features)
            self._b = 0.0
        return self

    def predict_vector(self, context: np.ndarray) -> float:
        return float(self._w @ context + self._b)
