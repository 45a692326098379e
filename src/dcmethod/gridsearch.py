"""Two-stage frequency grid search: screen every tuple, verify exactly.

Every scan is one call of a single engine, given one grid per signal
and R weighted right-hand sides.  It enumerates every strictly
descending tuple across the grids, screens them all, re-scores the
survivors with the exact kernel and keeps, per right-hand side, the
lowest z with a lexicographic tie-break.  The long stage is the engine
with R = 1 over k1 copies of one even grid on [f_min, f_max]; the short
stage is R = 1 over a dense grid inside a narrow window around each
long-stage frequency; ``scan_rounds`` runs the short-stage grids with
one right-hand side per bootstrap round.  After a stage's merge has
fixed its best tuple, the same engine scores the slices through it:
one tuple per grid point and signal axis, the other frequencies held
at the best tuple's.

Screen
------
A scan frequency contributes the same weighted cos/sin columns to every
tuple that contains it.  The columns of all scan frequencies plus the
trend columns are therefore built once, as one matrix C, by the exact
kernel's own expression (``linfit.weighted_design``), so the design
matrix A of a tuple is a column subset of C, bit for bit.  C is kept
for the whole scan: the exact pass gathers each tuple's A from it
instead of rebuilding it.  The entries of C^T C a tuple can gather (one
frequency per signal axis: between two axes' grids, within a grid that
several axes share, each frequency's own block, and the trend's), every
right-hand side C^T y_w (all bootstrap rounds at once) and every
y_w^T y_w are formed over row blocks of n_b = ceil(sqrt(n)) rows: the
partials of each block come from its rows alone and are added in place
into one running buffer.  Each tuple gathers its m x m
Gram G = A^T A and b = A^T y_w and is scored in O(m^3), independent of
n (the joint, multi-term form of the generalised Lomb-Scargle normal
equations):

    x = G^-1 b,    rss = s - 2 b^T x + x^T G x,    s = y_w^T y_w,

with x from a Cholesky factor G = R^T R.  For any x the formula equals
||y_w - A x||^2 = rss* + ||A (x - x*)||^2, with x* the exact least
squares solution, so it is second order in the solve error.

Notation: u = 2^-53, gamma_k = k u / (1 - k u), K = ceil(n / n_b) the
number of row blocks.  Two constants split the rounding:

- delta_f = gamma_k with k = n_b + K - 1 + 2m + 4.  Each entry of the
  computed G, b and s is a length-n_b dot product per block, in any
  order, followed by K - 1 additions, so it differs from the exact one
  by at most gamma_(n_b+K-1) times |A|^T|A|, |A|^T|y| and y^T y
  elementwise (Higham 2002, Accuracy and Stability, ch. 3); the 2m + 4
  covers the screen's own length-m dot products.
- delta = gamma_k with k = n + 2m + 4, the exact kernel's: its thin SVD
  is normwise backward stable with the backward-error constant taken to
  lie within delta, and its sums of squares run over n rows.

a^2 = ||A||_F^2, taken as trace(G)(1 + 2 delta_f); c_j >= ||A_j|| the
column norms, from diag(G).  As everywhere here, nothing underflows or
overflows.

Guard
-----
The certificate (Rump 2006, "Verification of positive definiteness",
BIT 46, 433): for t >= 0 let M = fl(G - t I), the computed Gram with t
subtracted from its diagonal.  If the floating-point Cholesky of M
completes with positive pivots, R^T R = M + E with |E| <= gamma_(m+1)
|R|^T |R| (Higham 2002, Thm 10.3), and || |R|^T |R| || <= ||R||_F^2 <=
tr(M) / (1 - gamma_(m+1)) <= tr(G) / (1 - gamma_(m+1)); the rounded
diagonal of M is off by at most u max_j G_jj.  R^T R is positive
definite, so

    lam_min(G) > t - rho,    rho = gamma_(2m+3) tr(G).

The screen factors G once, estimates lam_s = 0.95 / trace(G^-1) =
0.95 / ||R^-T||_F^2 from that factor (in exact arithmetic 1 / trace(G^-1)
lies between lam_min / m and lam_min, and is close to lam_min when one
eigenvalue is far below the others, as in a near-singular tuple), and
factors M at t = lam_s + 2 rho; the second rho covers the rounding of
rho and t, since lam_s <= tr(G).  If that factorisation completes,
lam_min(G) > lam_s is certified, however wrong the estimate was.  By
Weyl and the formation bound, no eigenvalue of the exact Gram is more
than delta_f a^2 below the computed one's (no eigensolver error
enters), so lam_lo = lam_s - delta_f a^2 <= lam_min of the exact
Gram.  A tuple goes to the exact kernel unless both factorisations
complete, lam_lo > 0 and

    kappa = a^2 / lam_lo <= T = 1 / (8 delta).

kappa bounds cond(G) from above (lam_max <= a^2), so T is a threshold
on the Gram condition number: 3.5e12 at n = 300 and 1.1e12 at n = 1000
(m = 11), never above 1 / (32 u) = 2.8e14 since delta >= 4u.  It is the
largest threshold under which the bound below holds.  A tuple that
passes has cond(A) = cond(G)^(1/2) <= (8 delta)^(-1/2) <= 1.7e7, and the
SVD moves no singular value by more than delta a <= delta m^(1/2)
sigma_max, so its computed sigma_min / sigma_max stays above 1e-8, far
above ``RANK_RCOND`` = 1e-10: the exact kernel solves it at full rank.
An exactly singular Gram (a duplicated frequency, or f_a = j f_b on a
grid with k2 >= j) has lam_min = 0, so no lam_lo > 0 can be certified
for it: it is routed, never raised.

Bound
-----
For any x, ||A (x - x*)||^2 <= ||A^T (y - A x)||^2 / lam_min(G), and
|| |A| |x| || <= nu(x) = sum_j c_j |x_j| <= a ||x||.

1. The screen's rss, evaluated from the rounded s, b, G with length-m
   dot products, is within e1 = delta_f (||y|| + nu)^2 of ||y - A x||^2.
2. Its normal-equation residual g = A^T (y - A x) is within
   delta_f a (||y|| + nu) of the computed g^ = b - G x, so
   q1 = ||A (x - x*)||^2 <= g_b^2 / lam_lo, with
   g_b = (1 + 2 delta_f) ||g^|| + delta_f a (||y|| + nu).
3. The exact kernel's SVD solution x_s solves the problem for A + dA,
   y + dy with ||dA|| <= delta a, ||dy|| <= delta ||y||.  From the
   perturbed normal equations, ||A^T (y - A x_s)|| <= delta a S with
   S = (2 + delta) ||y|| + a ||x_s||, and with 8 delta kappa <= 1 and
   ||x_s - x|| <= (g_b + delta a S) / lam_lo,
   S <= S_b = (8/7) ((2 + delta) ||y|| + a ||x|| + a g_b / lam_lo).
   So q2 = ||A (x_s - x*)||^2 <= delta^2 kappa S_b^2.
4. The kernel's explicit residual r = y - A x_s is rounded
   componentwise by at most gamma_(m+1) (|y| + |A| |x_s|), a vector of
   norm at most D = gamma_(m+1) (||y|| + nu + a g_b / lam_lo
   + delta kappa S_b); ||r||^2 = rss* + q2 <= R^2 = rss + e1 + q2.  The
   sum of squares is then within e2 = 2 R D + D^2 + delta (R + D)^2 of
   ||r||^2.

Both values equal rss* plus their own q and rounding, so

    |rss_screen - rss_exact| <= e1 + q1 + q2 + e2,

and the reported bound is twice that, which also covers the rounding of
the bound's own evaluation.  For a well-conditioned tuple it is close
to 2 delta_f (||y|| + nu)^2: the rounding of the blocked formation and
of s - 2 b^T x + x^T G x, which no solve can remove.  The formation's
delta_f enters e1, q1 and lam_lo, the bound on the exact Gram's
spectrum; the guard's threshold T, q2 and e2 belong to the exact kernel
and keep its delta.

Verify
------
The bound brackets each unguarded tuple's exact z, as computed by the
exact kernel, between z_lo = sqrt(max(rss - bound, 0) / n) and z_hi =
sqrt((rss + bound) / n) (rounding is monotone), per right-hand side
(round).  Let Z_r be the smallest z_hi of round r.  The survivors are
every guarded tuple (z_lo = -inf) and every tuple with z_lo <= Z_r for
some round, and the exact kernel re-scores the (tuple, round) pairs
with z_lo <= Z_r: every round for a guarded tuple, for any tuple when
R = 1.  Each survivor's weighted design matrix is gathered from C into
a C-contiguous (B, n, m) array, the layout ``design_matrix`` returns
(the matmul bits depend on it), so it equals ``weighted_design(...)``
bit for bit, and ``BatchSolver`` factors it once.  A survivor every
round needs is fitted against all rounds by ``misfit``; the pairs of
the others are fitted through ``BatchSolver.take``, which gathers each
pair's factors in the same layout, and ``misfit`` on one data row per
pair.  Either way ``residuals`` fits each right-hand side as its own
column, so each exact z is ``solve_linear``'s for that tuple and
series, whatever chunk, pair batch or round block it is in.  The tuple
that attains each Z_r is among round r's pairs.  A pair left out has
exact z >= z_lo > Z_r >= the round's exact minimum, strictly above it,
so it enters the selection as +inf and can neither win nor tie.  One
rule, ``_lex_argmin`` (lowest exact z, ties to the lexicographically
smallest tuple), picks each round's winner inside every exact chunk and
once more over the chunk winners, so the scan yields the same z_min,
best tuple and degenerate flag as an exact scan of every tuple, bit for
bit.  Unguarded tuples are never rank deficient, and every survivor is
still factored, so the degenerate flag only needs the guarded ones.

A slice point is a tuple over the stage's grids too (the varied
frequency is on its axis's grid, the others are the best tuple's), so
its columns are in C as well.  Slice points skip the screen: each is
scored from gathered columns by the same exact entry as the survivors,
so every slice z equals ``periodogram_slice``'s and ``solve_linear``'s
bit for bit, duplicated frequencies included.

Work is split into tuple chunks whose size depends only on the problem
dimensions, never on the worker count.  The screen lays a chunk's
tuples along the last axis and computes with elementwise steps and
row-by-row sums only, so a tuple's screened values do not depend on its
chunk.  It runs its chunks in order on the calling thread: its steps
are short NumPy calls on chunk-sized vectors, each of which releases
and retakes the interpreter lock, so threads running them mostly wait
for one another (two threads took longer than one).  The exact re-score
and the slices, whose SVDs run long without the lock, run their chunks
through one ``ordered_map``.  The set of re-scored pairs is fixed by
the final Z_r alone, results are merged with exact comparisons, and a
pair's z does not depend on the chunk it is in, so output is identical
whatever the number of threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnstableSearchError
from .linfit import BatchSolver, evaluate_z, weighted_design
from .model import ModelSpec
from .timeseries import TimeSeries, span_stats

# Not called here: the benchmark's call-site tracer (bench/tracer.py)
# wraps this name on this module, so it stays importable from it.
from .linfit import design_solver  # noqa: F401

__all__ = ["SearchConfig", "Slice", "Periodogram", "long_search", "short_search",
           "periodogram_slice", "scan_rounds", "ordered_map"]

# Elements of one (tuples, n, m) exact-kernel array per chunk, of one
# (tuples, rounds, n) residual block, and of one pair batch's gathered
# factors and residuals, (pairs, n, 2 m + 1).  The scans send only guarded
# and near-minimum tuples and the slice points there; small batches
# keep peak memory down and give a pool of two or more workers several
# chunks per stage.
_EXACT_TARGET = 250_000
_CHUNK_MAX = 4096
_CHUNK_MIN = 16
# Elements of one (m, m + rounds, tuples) screen array per chunk.
_SCREEN_TARGET = 50_000

_U = np.finfo(float).eps / 2.0
# The screen certifies lam_min(G) > this fraction of 1 / trace(G^-1).
_LAM_FRACTION = 0.95


def _gamma(k: int) -> float:
    """Rounding-error factor of a length-k dot product, k u / (1 - k u)."""
    return k * _U / (1.0 - k * _U)


@dataclass(frozen=True)
class SearchConfig:
    """Frequency range and grid sizes of the two search stages.

    ``half_width_frac`` is the fraction c of the full frequency range
    used as the short-stage window width: each window spans
    f_best +- c (f_max - f_min) / 2, clipped to the search range.
    """

    f_min: float
    f_max: float
    n_long: int = 200
    n_short: int = 200
    half_width_frac: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.f_min < self.f_max):
            raise ConfigError("need 0 < f_min < f_max")
        if self.n_long < 2 or self.n_short < 2:
            raise ConfigError("grids need at least 2 points")
        if self.half_width_frac <= 0.0:
            raise ConfigError("half_width_frac must be > 0")

    @classmethod
    def from_periods(cls, p_min: float, p_max: float, **kw) -> "SearchConfig":
        if not (0.0 < p_min < p_max):
            raise ConfigError("need 0 < p_min < p_max")
        return cls(f_min=1.0 / p_max, f_max=1.0 / p_min, **kw)

    @property
    def window_half_width(self) -> float:
        return 0.5 * self.half_width_frac * (self.f_max - self.f_min)


@dataclass
class Slice:
    """One-dimensional cut z_i(f_i) with the other frequencies frozen."""

    signal: int  # 1-based
    f: np.ndarray
    z: np.ndarray


@dataclass
class Periodogram:
    """Result of one search stage."""

    stage: str
    grids: list[np.ndarray]
    best: np.ndarray
    z_min: float
    slices: list[Slice]
    combinations: int
    degenerate_hit: bool = False


def ordered_map(fn, items, workers):
    """``fn(item)`` for every item, in input order, as a list or iterator.

    With ``workers`` > 1 the calls run on a thread pool.  If one raises,
    the calls not yet started are cancelled and the exception propagates.
    """
    if workers <= 1:
        return map(fn, items)
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, items))
    finally:
        pool.shutdown(cancel_futures=True)


def _chunk_rows(n: int, m: int, target: int) -> int:
    rows = target // max(1, n * m)
    return int(min(_CHUNK_MAX, max(_CHUNK_MIN, rows)))


def _product_chunks(grids: list[np.ndarray], rows: int):
    """Yield (B, k) arrays of strictly descending tuples drawn from
    per-signal grids, enumerated in lexicographic index order."""
    tail = grids[1:]
    tail_size = int(np.prod([g.size for g in tail]))
    # Lead-axis blocks keep the unfiltered mesh bounded.
    lead_block = max(1, rows // max(1, tail_size))
    g0 = grids[0]
    buf = np.empty((0, len(grids)))
    for start in range(0, g0.size, lead_block):
        lead = g0[start:start + lead_block]
        mesh = np.meshgrid(lead, *tail, indexing="ij")
        tuples = np.stack([m.ravel() for m in mesh], axis=1)
        keep = np.all(tuples[:, :-1] > tuples[:, 1:], axis=1)
        buf = np.concatenate([buf, tuples[keep]])
        while buf.shape[0] >= rows:
            yield buf[:rows]
            buf = buf[rows:]
    if buf.size:
        yield buf


def _row_block(n: int) -> int:
    """Rows per block of the Gram formation, ceil(sqrt(n))."""
    return math.isqrt(n - 1) + 1


def _gram(cols: np.ndarray, yw: np.ndarray, groups, h: int):
    """G = C^T C, b = C^T Y^T and s = diag(Y Y^T) for the data rows Y,
    summed over row blocks.

    ``groups`` lists (start, stop, full) column ranges that cover C.  G
    holds what a tuple can gather, one frequency per signal axis: the
    cross-Gram of every two groups, and a group's own Gram where
    ``full`` (a grid shared by several axes, or the trend), else only
    the h x h block of each of its frequencies; the rest stays zero.
    Each block's partials come from one product of its rows and are
    added in place into the running G, b and s.  Returns them and k,
    the length of the formation's rounding constant gamma_k.
    """
    n, f = cols.shape
    rows = _row_block(n)
    gram, rhs, ss = np.zeros((f, f)), np.zeros((f, yw.shape[0])), np.zeros(yw.shape[0])
    rhs_part = np.empty_like(rhs)
    part = np.empty(max([(a1 - a0) * (b1 - b0) for i, (a0, a1, full) in enumerate(groups)
                         for b0, b1, _ in groups[i if full else i + 1:]], default=0))
    upper = [(p, q) for p in range(h) for q in range(p, h)]
    own = {i: np.zeros(((a1 - a0) // h, h, h))
           for i, (a0, a1, full) in enumerate(groups) if not full}
    for start in range(0, n, rows):
        c, y = cols[start:start + rows], yw[:, start:start + rows]
        rhs += np.matmul(c.T, y.T, out=rhs_part)
        ss += np.einsum("rn,rn->r", y, y)
        for i, (a0, a1, full) in enumerate(groups):
            ca = c[:, a0:a1]
            if not full:
                cf = ca.reshape(ca.shape[0], -1, h)
                for p, q in upper:
                    own[i][:, p, q] += np.einsum("nf,nf->f", cf[:, :, p], cf[:, :, q])
            for b0, b1, _ in groups[i if full else i + 1:]:
                out = part[:(a1 - a0) * (b1 - b0)].reshape(a1 - a0, b1 - b0)
                gram[a0:a1, b0:b1] += np.matmul(ca.T, c[:, b0:b1], out=out)
    for i, (a0, a1, _) in enumerate(groups):
        if i in own:
            for p, q in upper:
                own[i][:, q, p] = own[i][:, p, q]
            idx = a0 + np.arange(a1 - a0).reshape(-1, h)
            gram[idx[:, :, None], idx[:, None, :]] = own[i]
        for b0, b1, _ in groups[i + 1:]:
            gram[b0:b1, a0:a1] = gram[a0:a1, b0:b1].T
    blocks = -(-n // rows)
    return gram, rhs, ss, rows + blocks - 1


def _sum0(terms) -> np.ndarray:
    """Sum of an array's rows, or of an iterable's arrays, added one
    after the other."""
    terms = iter(terms)
    out = next(terms).copy()
    for term in terms:
        out += term
    return out


def _cholesky(a: np.ndarray, tail: int = 0) -> np.ndarray:
    """Floating-point Cholesky G = R^T R of each tuple of an (m, m + p, B)
    stack in place, B tuples along the last axis with the Gram in the
    first m columns, and whether all of a tuple's pivots were positive.

    Row j ends as row j of R, and the p columns past m go through the
    same row operations, so they end as R^-T times what they held.  When
    the last ``tail`` columns hold an identity, the zeros right of row
    j's own diagonal there are skipped.  A tuple whose pivot fails stops
    eliminating and reports False, where LAPACK's stacked factorisations
    would fail the whole stack.  A positive pivot p leaves p / sqrt(p) > 0
    on the diagonal, a failed one 0 or NaN.
    """
    m, width = a.shape[:2]
    for j in range(m):
        stop = width - tail + j + 1 if tail else width
        pivot = a[j, j]
        # a failed pivot divides its row by inf: the row, and so every
        # update it makes, becomes zero
        a[j, j:stop] /= np.sqrt(np.where(pivot > 0.0, pivot, np.inf))
        a[j + 1:, j + 1:stop] -= a[j, j + 1:m, None] * a[j, None, j + 1:stop]
    return (a[np.arange(m), np.arange(m)] > 0.0).all(axis=0)


def _certified_floor(gram: np.ndarray):
    """Per tuple of an (m, m, B) stack of Grams: whether lam_min(G) >
    lam_s is certified, lam_s = 0.95 / trace(G^-1) estimated from the
    Cholesky factor G = R^T R, and R^-T, (m, m, B)."""
    m, rows = gram.shape[1:]
    aug = np.zeros((m, 2 * m, rows))
    aug[:, :m] = gram
    aug[np.arange(m), m + np.arange(m)] = 1.0
    ok = _cholesky(aug, tail=m)
    inv = aug[:, m:]
    lam = _LAM_FRACTION / _sum0(_sum0(inv * inv))
    return ok & _certify(gram, lam), lam, inv


def _certify(gram: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Whether lam_min(G) > lam is certified, per tuple of an (m, m, B)
    stack of Grams: the floating-point Cholesky of G - t I completes at
    t = lam + 2 rho, rho = gamma_(2m+3) trace(G) (module docstring,
    Guard)."""
    m = gram.shape[0]
    diag = (np.arange(m), np.arange(m))
    shifted = gram.copy()
    shifted[diag] -= lam + 2.0 * _gamma(2 * m + 3) * _sum0(gram[diag])
    return _cholesky(shifted)


class _Blocks:
    """Weighted columns C of every scan frequency, their cross-Grams and
    right-hand sides, and the screen and exact re-score of a tuple chunk
    against them.

    ``grids`` holds one grid per signal axis; axes that share
    one grid object (the long stage) share its columns.  ``yw`` is the
    (R, n) weighted data, one row per round, and ``sigma`` the row
    divisor it was weighted by (None unweighted).
    """

    def __init__(self, ts: TimeSeries, spec: ModelSpec, stats, sigma, grids, yw):
        distinct = []
        self._axis = []
        for g in grids:
            pos = next((p for p, h in enumerate(distinct) if h is g), None)
            if pos is None:
                pos = len(distinct)
                distinct.append(g)
            order = np.argsort(g, kind="stable")
            start = sum(h.size for h in distinct[:pos])
            self._axis.append((g[order], start + order))
        freqs = np.concatenate(distinct)
        self.cols = weighted_design(ts.t, ModelSpec(freqs.size, spec.k2, spec.k3),
                                    freqs, stats, sigma)
        h = 2 * spec.k2
        bounds = np.cumsum([0] + [g.size * h for g in distinct])
        groups = [(a0, a1, sum(g is d for g in grids) > 1)
                  for a0, a1, d in zip(bounds[:-1], bounds[1:], distinct)]
        if spec.n_trend:
            groups.append((bounds[-1], bounds[-1] + spec.n_trend, True))
        self.gram, self.rhs, self.ss, k_form = _gram(self.cols, yw, groups, h)
        self.yw = yw
        self._harm = np.arange(h)
        self._trend = np.arange(freqs.size * h, freqs.size * h + spec.n_trend)
        m = spec.n_linear
        self.n = ts.n
        self.n_rhs = yw.shape[0]
        self.delta = _gamma(ts.n + 2 * m + 4)
        self.delta_form = _gamma(k_form + 2 * m + 4)
        self.delta_m = _gamma(m + 1)
        self.rows = _chunk_rows(m + self.n_rhs, m, _SCREEN_TARGET)
        self.exact_rows = _chunk_rows(ts.n, m, _EXACT_TARGET)

    def drop_screen(self):
        """Free the Grams and right-hand sides; C stays for the exact pass."""
        self.gram = self.rhs = None

    def columns(self, tuples: np.ndarray) -> np.ndarray:
        """Column indices into C of each tuple's design matrix, (B, m)."""
        h = self._harm.size
        parts = []
        for axis, (ordered, place) in enumerate(self._axis):
            q = place[np.searchsorted(ordered, tuples[:, axis])]
            parts.append(q[:, None] * h + self._harm)
        parts.append(np.broadcast_to(self._trend, (tuples.shape[0], self._trend.size)))
        return np.concatenate(parts, axis=1)

    def design(self, tuples: np.ndarray) -> np.ndarray:
        """Each tuple's weighted design matrix, gathered from C.

        Returns a C-contiguous (B, n, m) array, the layout of
        ``design_matrix``: equal to ``weighted_design(...)`` bit for
        bit, and so factored and solved to the same bits.
        """
        idx = self.columns(tuples)
        out = np.empty((idx.shape[0], self.n, idx.shape[1]))
        # one column at a time: a (B, n) copy each is several times
        # faster than one three-axis fancy index and a transposed copy
        for j in range(idx.shape[1]):
            out[:, :, j] = self.cols[:, idx[:, j]].T
        return out

    def exact(self, tuples: np.ndarray, need=None):
        """Exact z of every tuple of a chunk against every round, (B, R),
        and whether any tuple was rank deficient.

        Each tuple is factored once.  Without ``need``, ``BatchSolver.misfit``
        fits the rounds ``max(1, _EXACT_TARGET // (B n))`` at a time.  With
        ``need`` (B, R), only the (tuple, round) pairs it marks are
        fitted, ``_EXACT_TARGET // (n (2 m + 1))`` pairs per call on the
        pairs' gathered factors, and the others read +inf.  Neither block
        changes a bit: every z is ``solve_linear``'s for its tuple and
        round.
        """
        solver = BatchSolver(self.design(tuples))
        if need is None:
            step = max(1, _EXACT_TARGET // (tuples.shape[0] * self.n))
            z = np.concatenate([solver.misfit(self.yw[None, r0:r0 + step])
                                for r0 in range(0, self.n_rhs, step)], axis=1)
        else:
            z = np.full(need.shape, np.inf)
            pair, rnd = np.nonzero(need)
            step = max(1, _EXACT_TARGET // (self.n * (2 * solver.m + 1)))
            for p0 in range(0, pair.size, step):
                p, r = pair[p0:p0 + step], rnd[p0:p0 + step]
                z[p, r] = solver.take(p).misfit(self.yw[r][:, None])[:, 0]
        return z, bool(solver.degenerate.any())

    def rescore(self, tuples: np.ndarray, need=None):
        """Exact kernel on a chunk of survivors (against the rounds
        ``need`` marks, if given): per round the lowest z and its tuple
        (``_lex_argmin``), and whether any tuple of the chunk was rank
        deficient."""
        z, degenerate = self.exact(tuples, need)
        pick = _lex_argmin(z, tuples)
        return z[pick, np.arange(self.n_rhs)], tuples[pick], degenerate

    def score(self, tuples: np.ndarray):
        """Screen a tuple chunk.

        Returns
        -------
        ok : ndarray of bool, shape (B,)
            False where the guard sends the tuple to the exact kernel.
        rss, bound : ndarray, shape (ok.sum(), R)
            Screened residual sum of squares of the passing tuples and
            the bound on its distance to the exact kernel's value.
        """
        # Tuples run along the last axis: every step is elementwise over
        # contiguous rows or a row-by-row sum, so each tuple's bits are
        # its own, whatever chunk it is in.
        d, df = self.delta, self.delta_form
        idx = self.columns(tuples).T
        m = idx.shape[0]
        diag = (np.arange(m), np.arange(m))
        gram = self.gram.take(idx[:, None] * self.gram.shape[0] + idx[None, :])
        ok, lam_s, inv = _certified_floor(gram)
        a2 = _sum0(gram[diag]) * (1.0 + 2.0 * df)
        lam_lo = lam_s - df * a2
        ok &= (lam_lo > 0.0) & (8.0 * d * a2 <= lam_lo)

        b = self.rhs[idx].transpose(0, 2, 1)
        if not ok.all():
            keep = np.flatnonzero(ok)
            gram, b, inv, a2, lam_lo = (v[..., keep] for v in (gram, b, inv, a2, lam_lo))
        # x = G^-1 b = R^-1 R^-T b, with inv = R^-T lower triangular
        low_b = _sum0(inv[:, k, None] * b[k] for k in range(m))
        x = _sum0(inv[i, :, None] * low_b[i] for i in range(m))
        gx = _sum0(gram[:, j, None] * x[j] for j in range(m))
        rss = self.ss[:, None] - 2.0 * _sum0(b * x) + _sum0(x * gx)
        ghat = b - gx
        a = np.sqrt(a2)
        kappa = a * a / lam_lo
        y_norm = np.sqrt(self.ss)[:, None]
        col_norm = np.sqrt(gram[diag]) * (1.0 + df)
        nu = _sum0(col_norm[:, None] * np.abs(x))
        e1 = df * (y_norm + nu) ** 2
        g_b = (1.0 + 2.0 * df) * np.sqrt(_sum0(ghat * ghat)) + df * a * (y_norm + nu)
        s_b = (8.0 / 7.0) * ((2.0 + d) * y_norm
                             + a * np.sqrt(_sum0(x * x)) + a * g_b / lam_lo)
        q2 = d * d * kappa * s_b ** 2
        dm = self.delta_m * (y_norm + nu + a * g_b / lam_lo + d * kappa * s_b)
        r_s = np.sqrt(np.maximum(rss + e1, 0.0) + q2)
        e2 = 2.0 * r_s * dm + dm * dm + d * (r_s + dm) ** 2
        bound = 2.0 * (e1 + g_b ** 2 / lam_lo + q2 + e2)
        return ok, rss.T, bound.T

    def screen(self, tuples: np.ndarray):
        """Bracket each tuple's exact z per round: z_lo and z_hi, (B, R)
        each.

        A guarded tuple, or one whose screen overflowed, gets z_lo = -inf
        and z_hi = +inf in every round: it cannot be excluded, nor can it
        lower any round's smallest z_hi.
        """
        ok, rss, bound = self.score(tuples)
        z_lo = np.full((tuples.shape[0], self.n_rhs), -np.inf)
        z_hi = np.full_like(z_lo, np.inf)
        hi = np.sqrt((rss + bound) / self.n)
        lo = np.sqrt(np.maximum(rss - bound, 0.0) / self.n)
        finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
        rows = np.flatnonzero(ok)[finite]
        z_lo[rows], z_hi[rows] = lo[finite], hi[finite]
        return z_lo, z_hi


def _batches(tuples: np.ndarray, rows: int):
    for start in range(0, tuples.shape[0], rows):
        yield tuples[start:start + rows]


def _lex_argmin(z: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """The scan's one selection rule: per column of ``z`` (B, R), the row
    of the lowest z, ties going to the lexicographically smallest tuple.

    ``tuples`` is (B, k), one tuple per row for every column, or
    (B, R, k), a tuple per row and column.  Returns (R,) row indices.
    """
    t = tuples if tuples.ndim == 3 else np.broadcast_to(
        tuples[:, None, :], z.shape + tuples.shape[-1:])
    keys = [t[..., j] for j in range(t.shape[-1] - 1, -1, -1)] + [z]
    return np.lexsort(keys, axis=0)[0]


def _scan(ts, spec, stats, sigma, grids, y_rounds, workers):
    """The scan engine: the best tuple over ``grids`` for every data round.

    Screens every strictly descending tuple across ``grids`` against all
    R rounds of ``y_rounds`` (shape (R, n)), rows divided by ``sigma``
    (None unweighted), re-scores each survivor with
    the exact kernel against the rounds it can win and picks per round
    with ``_lex_argmin``: within each exact chunk, then once over the
    stacked chunk winners.

    Returns
    -------
    z_min : ndarray, shape (R,)
    best : ndarray, shape (R, k1)
    count : int
        Tuples scanned.
    degenerate : bool
        True when a re-scored tuple was rank deficient.
    blocks : _Blocks
        The scan's columns, for exact scores of further tuples over
        ``grids``.

    Raises
    ------
    UnstableSearchError
        If the grids admit no strictly descending tuple.
    """
    yw = np.asarray(y_rounds, dtype=float)
    if sigma is not None:
        yw = yw / sigma

    # Screen, on this thread (see the module docstring).  A tuple is
    # kept when its z_lo reaches the running smallest z_hi in some round;
    # the final cut below uses the scan-wide minimum, which can only be
    # lower, so the survivors depend on that final minimum alone.
    blocks = _Blocks(ts, spec, stats, sigma, grids, yw)
    count = 0
    z_star = np.full(blocks.n_rhs, np.inf)
    kept, kept_lo = [], []
    for tuples in _product_chunks(grids, blocks.rows):
        z_lo, z_hi = blocks.screen(tuples)
        count += tuples.shape[0]
        z_star = np.minimum(z_star, z_hi.min(axis=0))
        keep = (z_lo <= z_star).any(axis=1)
        kept.append(tuples[keep])
        kept_lo.append(z_lo[keep])
    if count == 0:
        raise UnstableSearchError("the grids admit no ordered frequency tuple")
    blocks.drop_screen()  # before the exact pass allocates its arrays
    need = np.concatenate(kept_lo) <= z_star
    keep = need.any(axis=1)
    survivors, need = np.concatenate(kept)[keep], need[keep]

    # Exact re-score, then the same rule over the chunk winners.  A
    # survivor every round needs is fitted against all of them at once;
    # any other only against the rounds whose z_star its z_lo reaches.
    full = need.all(axis=1)
    rows = blocks.exact_rows
    jobs = [(t, None) for t in _batches(survivors[full], rows)]
    jobs += zip(_batches(survivors[~full], rows), _batches(need[~full], rows))
    z_c, t_c, degen = zip(*ordered_map(lambda job: blocks.rescore(*job), jobs, workers))
    z_c, t_c = np.stack(z_c), np.stack(t_c)
    pick = _lex_argmin(z_c, t_c)
    rounds = np.arange(blocks.n_rhs)
    return z_c[pick, rounds], t_c[pick, rounds], count, any(degen), blocks


def periodogram_slice(ts, spec, freqs, axis, grid):
    """Misfit z along frequency axis ``axis`` < k1, the others held fixed.

    Returns the z values over ``grid``, every one from the exact kernel.
    Points where the varied frequency duplicates a fixed one are
    evaluated through the same rank-truncated solve as everywhere else.
    The search stages compute their slices inside the scan engine, from
    its columns, to the same bits.
    """
    if not 0 <= axis < spec.k1:
        raise ConfigError(f"axis {axis} is not a signal axis 0..{spec.k1 - 1}")
    tuples = _cut(np.asarray(freqs, dtype=float), axis, np.asarray(grid, dtype=float))
    z = [evaluate_z(ts, spec, c)[0]
         for c in _batches(tuples, _chunk_rows(ts.n, spec.n_linear, _EXACT_TARGET))]
    return np.concatenate(z) if z else np.empty(0)


def _cut(freqs, axis, grid):
    """Tuples equal to ``freqs`` except on ``axis``, which runs over ``grid``."""
    tuples = np.tile(freqs, (grid.size, 1))
    tuples[:, axis] = grid
    return tuples


def _slices(blocks, grids, best, workers) -> list[Slice]:
    """Cuts through ``best`` along every axis of ``grids``, one exact z
    per grid point, each equal to ``periodogram_slice``'s bit for bit.

    The k1 x grid-size points are scored from ``blocks``' columns in
    ``_EXACT_TARGET`` chunks through ``ordered_map``.
    """
    points = np.concatenate([_cut(best, axis, g) for axis, g in enumerate(grids)])
    z = np.concatenate([chunk_z for chunk_z, _ in ordered_map(
        blocks.exact, _batches(points, blocks.exact_rows), workers)])[:, 0]
    cuts = np.cumsum([g.size for g in grids])[:-1]
    return [Slice(signal=i + 1, f=g, z=zi)
            for i, (g, zi) in enumerate(zip(grids, np.split(z, cuts)))]


def _stage(stage, ts, spec, grids, workers) -> Periodogram:
    """One search stage: the engine on the series itself (R = 1), then,
    from the engine's columns and through its ``ordered_map``, a slice
    through the winner along every signal axis."""
    if spec.k1 < 1:
        raise ConfigError("grid search needs at least one signal (k1 >= 1)")
    if ts.n <= spec.eta + 1:
        raise ConfigError(
            f"need more than eta+1 = {spec.eta + 1} points, have {ts.n}")
    z_min, best, count, degenerate, blocks = _scan(
        ts, spec, span_stats(ts), ts.sigma, grids, ts.y[None], workers)
    best = best[0]
    return Periodogram(
        stage=stage, grids=grids, best=best, z_min=float(z_min[0]),
        slices=_slices(blocks, grids, best, workers),
        combinations=count, degenerate_hit=degenerate,
    )


def long_search(ts, spec, cfg: SearchConfig, workers=1):
    """Coarse scan over all descending tuples from one even grid.

    Returns
    -------
    Periodogram
        ``best`` holds the winning tuple (descending), ``slices`` one
        cut per signal across the full grid.

    Raises
    ------
    UnstableSearchError
        If the grid has fewer points than signals.
    """
    grid = np.linspace(cfg.f_min, cfg.f_max, cfg.n_long)
    return _stage("long", ts, spec, [grid] * spec.k1, workers)


def short_search(ts, spec, cfg: SearchConfig, centers, workers=1):
    """Dense scan in a window around each long-stage frequency.

    ``centers`` is the long-stage best tuple.  Windows are clipped to
    [f_min, f_max]; tuples are all ordered combinations across the
    per-signal windows.

    Raises
    ------
    UnstableSearchError
        If no strictly descending tuple exists across the windows.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.shape != (spec.k1,):
        raise ConfigError(f"expected {spec.k1} window centers")
    a = cfg.window_half_width
    grids = [np.linspace(max(cfg.f_min, mid - a), min(cfg.f_max, mid + a), cfg.n_short)
             for mid in centers]
    return _stage("short", ts, spec, grids, workers)


def scan_rounds(ts, spec, grids, y_rounds, workers=1):
    """Best tuple over the given grids for many data rounds at once.

    This is the bootstrap work horse: each resampled series re-runs the
    short stage over the same candidate tuples.  It is the scan engine
    behind both search stages with one right-hand side per round: the
    screen scores all rounds from one set of Grams, and the exact kernel
    factors each surviving tuple once and reuses the factors for every
    round.  Each round's z_min is ``solve_linear``'s on that round's
    series at its best tuple, bit for bit, so with ``y_rounds =
    ts.y[None]`` it returns the z_min and best tuple of a search stage
    over the same grids.

    Parameters
    ----------
    grids : list of ndarray
        Per-signal candidate frequencies (as produced by the short stage).
    y_rounds : ndarray, shape (R, n)
        One resampled data vector per round, R >= 1.

    Returns
    -------
    z_min : ndarray, shape (R,)
    best : ndarray, shape (R, k1)

    Raises
    ------
    ConfigError
        If ``grids`` does not hold k1 >= 1 grids, or ``y_rounds`` is not
        (R, n) with R >= 1.
    UnstableSearchError
        If no strictly descending tuple exists across the grids.
    """
    if spec.k1 < 1 or len(grids) != spec.k1:
        raise ConfigError(f"need k1 >= 1 and one grid per signal, got k1 = {spec.k1} "
                          f"and {len(grids)} grids")
    shape = np.shape(y_rounds)
    if len(shape) != 2 or shape[0] < 1 or shape[1] != ts.n:
        raise ConfigError(f"y_rounds must be (R, {ts.n}) with R >= 1, got {shape}")
    z_min, best, _, _, _ = _scan(ts, spec, span_stats(ts), ts.sigma, grids, y_rounds,
                                 workers)
    return z_min, best
