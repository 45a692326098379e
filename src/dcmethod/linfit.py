"""Linear least squares conditional on fixed frequencies.

With the frequencies held fixed the model is linear in the remaining
coefficients, so each candidate frequency tuple reduces to one least
squares solve.  Solves go through a singular value decomposition with
relative cutoff ``RANK_RCOND``: the grid deliberately probes
near-degenerate tuples (close or duplicated frequencies) and normal
equations would lose half the available precision exactly there.  A
rank-deficient solve returns the minimum norm solution and sets a
condition flag rather than failing.

Weighted fits scale rows by 1/sigma_i, which turns the residual sum of
squares into chi-square.  Every entry point, single tuple or batched,
runs through one kernel, so a scan evaluated tuple-by-tuple reproduces
a batched scan bit for bit.  Residuals are always computed explicitly
as b - A x; norm-difference identities cancel catastrophically when
the fit is near exact.

This kernel is the reference every reported misfit comes from.  The
grid scans (``gridsearch``) score most tuples far more cheaply from
precomputed Gram blocks, through exactly such a norm-difference
identity, but only to rule tuples out: each screened value carries a
rigorous bound on its distance to this kernel's value, and every tuple
the bound cannot rule out, together with every tuple whose Gram is too
ill-conditioned to bound, is re-scored here.  The scan's best z and
tuple are therefore always this kernel's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import BetaVector, ModelSpec, design_matrix
from .timeseries import SpanStats, TimeSeries, span_stats

__all__ = [
    "FitResult", "RANK_RCOND", "BatchSolver", "design_solver",
    "solve_linear", "evaluate_z", "fit_columns", "weighting_mode",
]

# Relative singular value cutoff below which directions are truncated.
RANK_RCOND = 1e-10


def weighting_mode(ts: TimeSeries, weighting: str | None) -> str:
    """Resolve the requested weighting against the available columns."""
    if weighting is None or weighting == "auto":
        return "chi-square" if ts.weighted else "unweighted"
    if weighting not in ("unweighted", "chi-square"):
        raise ConfigError(f"unknown weighting {weighting!r}")
    if weighting == "chi-square" and not ts.weighted:
        raise ConfigError("chi-square weighting needs a sigma column")
    return weighting


class BatchSolver:
    """SVD factors of a batch of (already weighted) design matrices.

    Factoring once and reusing across many right hand sides is what
    makes bootstrap resampling affordable: the matrices depend only on
    the frequency tuples, not on the data draw.
    """

    def __init__(self, a: np.ndarray):
        a = np.asarray(a, dtype=float)
        if a.ndim != 3:
            raise ValueError("expected a (batch, n, m) array")
        self.a = a
        self.u, s, self.vt = np.linalg.svd(a, full_matrices=False)
        keep = s > RANK_RCOND * s[..., :1]
        self._sinv = np.where(keep, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
        self.rank = keep.sum(axis=-1)
        self.m = a.shape[2]

    @property
    def degenerate(self) -> np.ndarray:
        return self.rank < self.m

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Minimum norm solutions ``x`` of shape (batch, m, rhs).

        ``b`` must broadcast against (batch, n, rhs).  Callers that need
        the residual form it explicitly as ``b - a x``.
        """
        uy = np.matmul(np.swapaxes(self.u, -1, -2), b)
        return np.matmul(np.swapaxes(self.vt, -1, -2), self._sinv[..., None] * uy)

    def misfit(self, b: np.ndarray, n_points: int) -> np.ndarray:
        """z = sqrt(rss / n) per (batch, rhs) pair."""
        resid = b - np.matmul(self.a, self.solve(b))
        rss = np.einsum("bnr,bnr->br", resid, resid)
        return np.sqrt(rss / n_points)


def design_solver(ts, spec, freq_batch, stats, weighting=None) -> BatchSolver:
    """Build the weighted design matrices for a tuple batch and factor
    them.  Pair with :meth:`BatchSolver.misfit` using ``weighted_y``."""
    mode = weighting_mode(ts, weighting)
    fb = np.atleast_2d(np.asarray(freq_batch, dtype=float))
    a = design_matrix(ts.t, spec, fb, stats)
    if mode == "chi-square":
        a = a / ts.sigma[None, :, None]
    return BatchSolver(a)


def weighted_y(ts: TimeSeries, weighting: str | None = None) -> np.ndarray:
    """The right hand side matching ``design_solver`` row scaling."""
    if weighting_mode(ts, weighting) == "chi-square":
        return ts.y / ts.sigma
    return ts.y


@dataclass
class FitResult:
    """Outcome of one conditional linear fit.

    ``r_sum`` is the plain residual sum of squares, ``chi2`` the
    sigma-weighted one (None for unweighted fits).  ``z`` is the
    normalised misfit sqrt(r_sum/n) or sqrt(chi2/n) according to the
    weighting in use.  ``condition_flag`` marks a rank-deficient solve.
    """

    beta: BetaVector
    residuals: np.ndarray
    r_sum: float
    chi2: float | None
    z: float
    rank: int
    condition_flag: bool

    @property
    def stat(self) -> float:
        """Misfit statistic used in model comparisons."""
        return self.r_sum if self.chi2 is None else self.chi2


def solve_linear(
    ts: TimeSeries,
    spec: ModelSpec,
    freqs,
    stats: SpanStats | None = None,
    weighting: str | None = None,
) -> FitResult:
    """Fit all linear coefficients at one frequency tuple.

    Parameters
    ----------
    freqs : array_like, shape (k1,)
        Fixed signal frequencies (empty for a pure trend model).

    Returns
    -------
    FitResult
    """
    if stats is None:
        stats = span_stats(ts)
    mode = weighting_mode(ts, weighting)
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    solver = design_solver(ts, spec, freqs[None, :], stats, mode)
    bw = weighted_y(ts, mode)
    b = bw[None, :, None]
    x = solver.solve(b)
    resid_w = (b - np.matmul(solver.a, x))[0, :, 0]
    x = x[0, :, 0]
    wsum = float(resid_w @ resid_w)
    beta = BetaVector(freqs, x)
    if mode == "chi-square":
        residuals = resid_w * ts.sigma
        r_sum = float(residuals @ residuals)
        chi2 = wsum
    else:
        residuals = resid_w
        r_sum = wsum
        chi2 = None
    return FitResult(
        beta=beta,
        residuals=residuals,
        r_sum=r_sum,
        chi2=chi2,
        z=float(np.sqrt(wsum / ts.n)),
        rank=int(solver.rank[0]),
        condition_flag=bool(solver.degenerate[0]),
    )


def evaluate_z(
    ts: TimeSeries,
    spec: ModelSpec,
    freq_batch,
    stats: SpanStats,
    weighting: str | None = None,
):
    """Normalised misfit z for a batch of frequency tuples.

    Parameters
    ----------
    freq_batch : array_like, shape (B, k1)

    Returns
    -------
    z : ndarray, shape (B,)
    degenerate : ndarray of bool, shape (B,)
        True where the solve was rank deficient.
    """
    solver = design_solver(ts, spec, freq_batch, stats, weighting)
    bw = weighted_y(ts, weighting)
    z = solver.misfit(bw[None, :, None], ts.n)
    return z[:, 0], solver.degenerate


def fit_columns(columns: np.ndarray, b: np.ndarray):
    """Least squares on an explicit column matrix (helper for the
    spectral baseline).  Returns (coefficients, fitted values, residuals)."""
    solver = BatchSolver(np.asarray(columns, dtype=float)[None, :, :])
    bb = np.asarray(b, dtype=float)[None, :, None]
    x = solver.solve(bb)
    resid = (bb - np.matmul(solver.a, x))[0, :, 0]
    return x[0, :, 0], b - resid, resid
