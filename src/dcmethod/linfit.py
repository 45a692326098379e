"""Linear least squares conditional on fixed frequencies.

With the frequencies held fixed the model is linear in the remaining
coefficients, so each candidate frequency tuple reduces to one least
squares solve.  Solves go through a singular value decomposition with
relative cutoff ``RANK_RCOND``: the grid deliberately probes
near-degenerate tuples (close or duplicated frequencies) and normal
equations would lose half the available precision exactly there.  A
rank-deficient solve returns the minimum norm solution and sets a
condition flag rather than failing.

A series with a sigma column is fitted by chi-square, one without by
plain least squares: the series carries its weighting, and no entry
takes a separate switch.  Weighted fits scale rows by 1/sigma_i, which
turns the residual sum of squares into chi-square.  That is one step
on each side, each in one place: ``weighted_design`` divides the design
rows by sigma (None unweighted), ``weighted_y`` divides data rows by
``ts.sigma``, and ``unweighted`` undoes it for the residuals.  Every
fit runs through one kernel, ``BatchSolver``, and one reduction:
``BatchSolver.residuals`` solves each data row as its own contiguous
column and forms its explicit residual b - A x, and ``sumsq`` sums its
squares.  Both entries go through it: ``fit`` for rows that each have
their own matrix and data (a single fit, the polish, the spectral
baseline), ``BatchSolver.misfit`` for one matrix per tuple against many
data rows (the scans, the slices, the bootstrap rounds).  So every z is
the one-column fit: a tuple scored inside any batch, against any number
of rounds, reproduces ``solve_linear`` on that tuple and series bit for
bit.  Residuals are always explicit; norm-difference identities cancel
catastrophically when the fit is near exact.

This kernel is the reference every reported misfit comes from.  The
grid scans (``gridsearch``) score most tuples far more cheaply from
precomputed Gram blocks, through exactly such a norm-difference
identity, but only to rule tuples out: each screened value carries a
rigorous bound on its distance to this kernel's value.  Each round's
screened-best tuple, its incumbent, is fitted here first; a tuple the
bound cannot rule out is then compared with its incumbent's z through
a second floor, formed from an explicit residual of the screen's
solution so that its rounding is linear in the residual, which the
Gram bound is not.  Every tuple neither rules out, together with every
tuple whose Gram is too ill-conditioned to bound, is re-scored here.
The scan's best z and tuple are therefore always this kernel's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BetaVector, ModelSpec, design_matrix
from .timeseries import SpanStats, TimeSeries, span_stats

__all__ = [
    "FitResult", "RANK_RCOND", "BatchSolver", "RowFit", "fit", "design_solver",
    "solve_linear", "evaluate_z", "fit_columns", "weighted_design", "unweighted",
    "sumsq",
]

# Relative singular value cutoff below which directions are truncated.
RANK_RCOND = 1e-10


def weighted_design(t, spec: ModelSpec, freqs, stats: SpanStats, sigma) -> np.ndarray:
    """``design_matrix`` with every row divided by ``sigma`` (kept as is
    when ``sigma`` is None).  The division is in place, on the fresh
    array ``design_matrix`` returns: the same bits without a copy."""
    a = design_matrix(t, spec, freqs, stats)
    if sigma is not None:
        a /= sigma[:, None]
    return a


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
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        # kept transposed, as every solve uses them: x = V S^+ U^T b
        self.ut, self.v = np.swapaxes(u, -1, -2), np.swapaxes(vt, -1, -2)
        keep = s > RANK_RCOND * s[..., :1]
        self._sinv = np.where(keep, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
        self.rank = keep.sum(axis=-1)
        self.m = a.shape[2]

    def take(self, idx) -> "BatchSolver":
        """The solver of matrices ``idx`` of this batch, repeats allowed:
        the factors are gathered, not recomputed, into the layout
        ``__init__`` leaves them in, so every fit through it has this
        batch's bits."""
        out = object.__new__(BatchSolver)
        out.a, out._sinv, out.rank = self.a[idx], self._sinv[idx], self.rank[idx]
        out.m = self.m
        out.ut, out.v = (np.swapaxes(np.swapaxes(f, -1, -2)[idx], -1, -2)
                         for f in (self.ut, self.v))
        return out

    @property
    def degenerate(self) -> np.ndarray:
        return self.rank < self.m

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Minimum norm solutions ``x`` of shape (batch, m, rhs) for
        ``b`` broadcasting against (batch, n, rhs), all columns in one
        product: for multi-column right-hand sides such as the polish's
        Jacobian.  Fits and misfits go through ``residuals``."""
        return np.matmul(self.v, self._sinv[..., None] * np.matmul(self.ut, b))

    def residuals(self, rows: np.ndarray):
        """Fit data row ``rows[b, r]`` on matrix b alone, for ``rows``
        broadcasting against (batch, R, n).

        Returns the coefficients x, (batch, R, m), and the explicit
        residuals rows - A x, (batch, R, n).  Each row is solved as its
        own C-contiguous (n, 1) column, so every pair takes the
        matrix-vector products one series fitted alone takes, whatever
        R, the batch or the row's stride: its bits are ``solve_linear``'s.
        """
        col = np.ascontiguousarray(rows, dtype=float)[..., None]
        uy = np.matmul(self.ut[:, None], col)
        x = np.matmul(self.v[:, None], self._sinv[:, None, :, None] * uy)
        resid = np.matmul(self.a[:, None], x)
        np.subtract(col, resid, out=resid)
        return x[..., 0], resid[..., 0]

    def misfit(self, rows: np.ndarray) -> np.ndarray:
        """z = sqrt(rss / n) per (batch, R) pair, for data ``rows``
        broadcasting against (batch, R, n): each row fitted alone by
        ``residuals``."""
        return np.sqrt(sumsq(self.residuals(rows)[1]) / rows.shape[-1])


def design_solver(ts, spec, freq_batch) -> BatchSolver:
    """Build the weighted design matrices for a tuple batch and factor
    them.  Pair with :meth:`BatchSolver.misfit` using ``weighted_y``."""
    fb = np.atleast_2d(np.asarray(freq_batch, dtype=float))
    return BatchSolver(weighted_design(ts.t, spec, fb, span_stats(ts), ts.sigma))


def weighted_y(ts: TimeSeries, *, rows=None) -> np.ndarray:
    """Data rows divided by ``ts.sigma``, the right-hand sides matching
    ``weighted_design``: the series' own y, or ``rows`` (R, n) on its
    times.  Unweighted rows come back as they are, not copied."""
    y = ts.y if rows is None else np.asarray(rows, dtype=float)
    return y if ts.sigma is None else y / ts.sigma


def sumsq(x):
    """x . x along the last axis, each through the dot a 1-D ``x @ x``
    makes."""
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


@dataclass
class RowFit:
    """The linear fit of each row of a stack."""

    solver: BatchSolver  # factors of the weighted design matrices
    x: np.ndarray        # (R, m) linear coefficients
    rw: np.ndarray       # (R, n) explicit weighted residuals yw - A_w x
    wsum: np.ndarray     # (R,) weighted residual sums of squares


def fit(a: np.ndarray, yw: np.ndarray) -> RowFit:
    """Least squares of row r of ``yw`` (R, n) on its own weighted
    design matrix ``a[r]`` (R, n, m).  Each slice is the computation one
    row alone makes: factor, solve, explicit residual, sum of squares."""
    solver = BatchSolver(a)
    x, rw = solver.residuals(yw[:, None])
    return RowFit(solver, x[:, 0], rw[:, 0], sumsq(rw[:, 0]))


def unweighted(ts: TimeSeries, resid_w: np.ndarray, wsum: float):
    """Plain residuals, r_sum and chi2 of a fit to ``ts`` from its
    weighted residuals ``resid_w`` and their sum of squares ``wsum``:
    ``weighted_y`` undone.  A series without sigma has chi2 None."""
    if ts.sigma is None:
        return resid_w, wsum, None
    residuals = resid_w * ts.sigma
    return residuals, float(residuals @ residuals), wsum


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


def solve_linear(ts: TimeSeries, spec: ModelSpec, freqs) -> FitResult:
    """Fit all linear coefficients at one frequency tuple.

    Parameters
    ----------
    freqs : array_like, shape (k1,)
        Fixed signal frequencies (empty for a pure trend model).

    Returns
    -------
    FitResult
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    f = fit(weighted_design(ts.t, spec, freqs[None, :], span_stats(ts), ts.sigma),
            weighted_y(ts)[None, :])
    wsum = float(f.wsum[0])
    residuals, r_sum, chi2 = unweighted(ts, f.rw[0], wsum)
    return FitResult(
        beta=BetaVector(freqs, f.x[0]),
        residuals=residuals,
        r_sum=r_sum,
        chi2=chi2,
        z=float(np.sqrt(wsum / ts.n)),
        rank=int(f.solver.rank[0]),
        condition_flag=bool(f.solver.degenerate[0]),
    )


def evaluate_z(ts: TimeSeries, spec: ModelSpec, freq_batch):
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
    solver = design_solver(ts, spec, freq_batch)
    z = solver.misfit(weighted_y(ts)[None, None])
    return z[:, 0], solver.degenerate


def fit_columns(columns: np.ndarray, b: np.ndarray):
    """Least squares on an explicit column matrix (helper for the
    spectral baseline).  Returns (coefficients, fitted values, residuals)."""
    f = fit(np.asarray(columns, dtype=float)[None], np.asarray(b, dtype=float)[None])
    return f.x[0], b - f.rw[0], f.rw[0]
