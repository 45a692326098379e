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
instead of rebuilding it.  One matmul gives every cross-Gram C^T C, one
more every right-hand side C^T y_w (all bootstrap rounds at once).
Each tuple gathers its m x m Gram G = A^T A and b = A^T y_w and is
scored in O(m^3), independent of n (the joint, multi-term form of the
generalised Lomb-Scargle normal equations):

    x = G^-1 b,    rss = s - 2 b^T x + x^T G x,    s = y_w^T y_w.

For any x the formula equals ||y_w - A x||^2 = rss* + ||A (x - x*)||^2,
with x* the exact least squares solution, so it is second order in the
solve error.

Notation: u = 2^-53, gamma_k = k u / (1 - k u), delta = gamma_k with
k = n + 2m + 4 (one dot product of length n or m, a few times over).
a^2 = ||A||_F^2, taken as trace(G)(1 + 2 delta); c_j >= ||A_j|| the
column norms, from diag(G); lam the eigenvalues of the computed Gram.
The computed G, b and s differ from the exact ones by at most gamma_n
times |A|^T|A|, |A|^T|y| and y^T y elementwise, for any summation
order.  The LAPACK symmetric eigensolver and thin SVD are normwise
backward stable; their backward-error constants are taken to lie
within delta.

Guard
-----
By Weyl, every eigenvalue of the exact G lies within delta a^2 of the
computed one, so lam_lo = lam_min - delta a^2 <= lam_min(G).  A tuple
goes to the exact kernel unless lam_lo > 0 and

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
grid with k2 >= j) has lam_min = 0, hence lam_lo <= 0: it is routed,
never raised.

Bound
-----
For any x, ||A (x - x*)||^2 <= ||A^T (y - A x)||^2 / lam_min(G), and
|| |A| |x| || <= nu(x) = sum_j c_j |x_j| <= a ||x||.

1. The screen's rss, evaluated from the rounded s, b, G with length-m
   dot products, is within e1 = delta (||y|| + nu)^2 of ||y - A x||^2.
2. Its normal-equation residual g = A^T (y - A x) is within
   delta a (||y|| + nu) of the computed g^ = b - G x, so
   q1 = ||A (x - x*)||^2 <= g_b^2 / lam_lo, with
   g_b = (1 + 2 delta) ||g^|| + delta a (||y|| + nu).
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
to 2 delta (||y|| + nu)^2: the rounding of s - 2 b^T x + x^T G x, which
no solve can remove.

Verify
------
The bound brackets each unguarded tuple's exact z, as computed by the
exact kernel, between z_lo = sqrt(max(rss - bound, 0) / n) and z_hi =
sqrt((rss + bound) / n) (rounding is monotone), per right-hand side.
Let Z be the smallest z_hi of a right-hand side.  Every guarded tuple
and every tuple with z_lo <= Z for some right-hand side is re-scored by
the exact kernel: its weighted design matrix is gathered from C into a
C-contiguous (B, n, m) array, the layout ``design_matrix`` returns (the
matmul bits depend on it), so it equals ``weighted_design(...)`` bit
for bit; ``BatchSolver`` factors it once and ``misfit`` fits every
right-hand side as its own column, so each exact z is ``solve_linear``'s
for that tuple and series, whatever chunk or round block it is in.  The
tuple that attains each Z is among them.  Any other tuple has exact z >= z_lo > Z
>= the exact minimum, strictly above it.  One rule, ``_lex_argmin``
(lowest exact z, ties to the lexicographically smallest tuple), picks
each round's winner inside every exact chunk and once more over the
chunk winners, so the scan yields the same z_min, best tuple and
degenerate flag as an exact scan of every tuple, bit for bit.
Unguarded tuples are never rank deficient, so the degenerate flag only
needs the guarded ones.

A slice point is a tuple over the stage's grids too (the varied
frequency is on its axis's grid, the others are the best tuple's), so
its columns are in C as well.  Slice points skip the screen: each is
scored from gathered columns by the same exact entry as the survivors,
so every slice z equals ``periodogram_slice``'s and ``solve_linear``'s
bit for bit, duplicated frequencies included.

Work is split into tuple chunks whose size depends only on the problem
dimensions, never on the worker count, and every stage (screen, exact
re-score, slices) runs its chunks through one ``ordered_map``.  The set
of re-scored tuples is fixed by the final Z alone, results are merged
with exact comparisons, and a tuple's z does not depend on the chunk it
is in, so output is identical whatever the number of threads.
"""

from __future__ import annotations

import collections
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UnstableSearchError
from .linfit import BatchSolver, evaluate_z, row_sigma, weighted_design
from .model import ModelSpec
from .timeseries import TimeSeries, span_stats

# Not called here: the benchmark's call-site tracer (bench/tracer.py)
# wraps this name on this module, so it stays importable from it.
from .linfit import design_solver  # noqa: F401

__all__ = ["SearchConfig", "Slice", "Periodogram", "long_search", "short_search",
           "periodogram_slice", "scan_rounds", "ordered_map"]

# Elements of one (tuples, n, m) exact-kernel array per chunk, and of
# one (tuples, rounds, n) residual block.  The scans send only guarded
# and near-minimum tuples and the slice points there; small batches
# keep peak memory down and give a pool of two or more workers several
# chunks per stage.
_EXACT_TARGET = 250_000
_CHUNK_MAX = 4096
_CHUNK_MIN = 16
# Elements of one (tuples, m, m + rounds) screen array per chunk.
_SCREEN_TARGET = 50_000

_U = np.finfo(float).eps / 2.0


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
    """Yield ``fn(item)`` for every item, in input order.

    With ``workers`` > 1 the calls run on a thread pool with at most
    2 x workers of them in flight, so a long item stream never piles up
    results in memory.
    """
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


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
    pending = []
    pending_rows = 0
    for start in range(0, g0.size, lead_block):
        lead = g0[start:start + lead_block]
        mesh = np.meshgrid(lead, *tail, indexing="ij")
        tuples = np.stack([m.ravel() for m in mesh], axis=1)
        keep = np.all(tuples[:, :-1] > tuples[:, 1:], axis=1)
        tuples = tuples[keep]
        if tuples.size:
            pending.append(tuples)
            pending_rows += tuples.shape[0]
        while pending_rows >= rows:
            buf = np.concatenate(pending, axis=0) if len(pending) > 1 else pending[0]
            yield buf[:rows]
            rest = buf[rows:]
            pending = [rest] if rest.size else []
            pending_rows = rest.shape[0] if rest.size else 0
    if pending_rows:
        yield np.concatenate(pending, axis=0) if len(pending) > 1 else pending[0]


class _Blocks:
    """Weighted columns C of every scan frequency, their cross-Grams and
    right-hand sides, and the screen and exact re-score of a tuple chunk
    against them.

    ``grids`` holds one grid per signal axis; axes that share
    one grid object (the long stage) share its columns.  ``yw`` is the
    (n, R) weighted data, one column per round.
    """

    def __init__(self, ts: TimeSeries, spec: ModelSpec, stats, weighting, grids, yw):
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
                                    freqs, stats, row_sigma(ts, weighting))
        self.gram = self.cols.T @ self.cols
        self.rhs = self.cols.T @ yw
        self.ss = np.einsum("nr,nr->r", yw, yw)
        self.yw = yw
        h = 2 * spec.k2
        self._harm = np.arange(h)
        self._trend = np.arange(freqs.size * h, freqs.size * h + spec.n_trend)
        m = spec.n_linear
        self.n = ts.n
        self.n_rhs = yw.shape[1]
        self.delta = _gamma(ts.n + 2 * m + 4)
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

    def exact(self, tuples: np.ndarray):
        """Exact z of every tuple of a chunk against every round, (B, R),
        and whether any tuple was rank deficient.

        Each tuple is factored once; ``BatchSolver.misfit`` fits the
        rounds ``max(1, _EXACT_TARGET // (B n))`` at a time.  That block
        bounds memory only: every z is ``solve_linear``'s for its tuple
        and round.
        """
        solver = BatchSolver(self.design(tuples))
        step = max(1, _EXACT_TARGET // (tuples.shape[0] * self.n))
        z = np.concatenate([solver.misfit(self.yw[None, :, r0:r0 + step], self.n)
                            for r0 in range(0, self.n_rhs, step)], axis=1)
        return z, bool(solver.degenerate.any())

    def rescore(self, tuples: np.ndarray):
        """Exact kernel on a chunk of survivors: per round the lowest z
        and its tuple (``_lex_argmin``), and whether any tuple of the
        chunk was rank deficient."""
        z, degenerate = self.exact(tuples)
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
        d = self.delta
        idx = self.columns(tuples)
        gram = self.gram[idx[:, :, None], idx[:, None, :]]
        b = self.rhs[idx]
        lam, vec = np.linalg.eigh(gram)
        a2 = np.trace(gram, axis1=1, axis2=2) * (1.0 + 2.0 * d)
        lam_lo = lam[:, 0] - d * a2
        ok = (lam_lo > 0.0) & (8.0 * d * a2 <= lam_lo)
        gram, b, lam, vec, a2, lam_lo = gram[ok], b[ok], lam[ok], vec[ok], a2[ok], lam_lo[ok]
        x = vec @ ((np.swapaxes(vec, 1, 2) @ b) / lam[:, :, None])
        gx = gram @ x
        rss = self.ss - 2.0 * np.einsum("bmr,bmr->br", b, x) + np.einsum("bmr,bmr->br", x, gx)
        ghat = b - gx
        a = np.sqrt(a2)[:, None]
        lam_lo = lam_lo[:, None]
        kappa = a * a / lam_lo
        y_norm = np.sqrt(self.ss)
        col_norm = np.sqrt(np.diagonal(gram, axis1=1, axis2=2)) * (1.0 + d)
        nu = np.einsum("bm,bmr->br", col_norm, np.abs(x))
        e1 = d * (y_norm + nu) ** 2
        g_b = (1.0 + 2.0 * d) * np.sqrt(np.einsum("bmr,bmr->br", ghat, ghat)) \
            + d * a * (y_norm + nu)
        s_b = (8.0 / 7.0) * ((2.0 + d) * y_norm
                             + a * np.sqrt(np.einsum("bmr,bmr->br", x, x)) + a * g_b / lam_lo)
        q2 = d * d * kappa * s_b ** 2
        dm = self.delta_m * (y_norm + nu + a * g_b / lam_lo + d * kappa * s_b)
        r_s = np.sqrt(np.maximum(rss + e1, 0.0) + q2)
        e2 = 2.0 * r_s * dm + dm * dm + d * (r_s + dm) ** 2
        bound = 2.0 * (e1 + g_b ** 2 / lam_lo + q2 + e2)
        return ok, rss, bound

    def screen(self, tuples: np.ndarray):
        """Chunk tuples that may need the exact kernel, their z_lo, and
        the smallest z_hi per round ((R,), inf if every tuple is guarded).

        Guarded tuples get z_lo = -inf, and so does any tuple whose
        screen overflowed.  Tuples whose z_lo exceeds the chunk's own
        smallest z_hi in every round are dropped here already: the
        scan-wide smallest z_hi can only be lower.
        """
        ok, rss, bound = self.score(tuples)
        z_lo = np.full((tuples.shape[0], self.n_rhs), -np.inf)
        z_hi = np.sqrt((rss + bound) / self.n)
        lo = np.sqrt(np.maximum(rss - bound, 0.0) / self.n)
        finite = np.isfinite(lo).all(axis=1) & np.isfinite(z_hi).all(axis=1)
        z_lo[np.flatnonzero(ok)[finite]] = lo[finite]
        z_hi_min = z_hi[finite].min(axis=0, initial=np.inf)
        keep = (z_lo <= z_hi_min).any(axis=1)
        return tuples.shape[0], tuples[keep], z_lo[keep], z_hi_min


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


def _scan(ts, spec, stats, weighting, grids, y_rounds, workers):
    """The scan engine: the best tuple over ``grids`` for every data round.

    Screens every strictly descending tuple across ``grids`` against all
    R rounds of ``y_rounds`` (shape (R, n)), re-scores the survivors with
    the exact kernel and picks per round with ``_lex_argmin``: within
    each exact chunk, then once over the stacked chunk winners.

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
    yw = np.asarray(y_rounds, dtype=float).T.copy()
    sigma = row_sigma(ts, weighting)
    if sigma is not None:
        yw /= sigma[:, None]
    n_rounds = yw.shape[1]

    # Screen.  The survivors are every guarded tuple and every tuple
    # whose z_lo is at most the scan-wide smallest z_hi in some round:
    # the set depends on that final minimum alone, not on the order
    # chunks finish in.
    blocks = _Blocks(ts, spec, stats, weighting, grids, yw)
    count = 0
    z_star = np.full(n_rounds, np.inf)
    kept, kept_lo = [], []
    for c, tuples, z_lo, z_hi_min in ordered_map(
            blocks.screen, _product_chunks(grids, blocks.rows), workers):
        count += c
        z_star = np.minimum(z_star, z_hi_min)
        keep = (z_lo <= z_star).any(axis=1)
        kept.append(tuples[keep])
        kept_lo.append(z_lo[keep])
    if count == 0:
        raise UnstableSearchError("the grids admit no ordered frequency tuple")
    blocks.drop_screen()  # before the exact pass allocates its arrays
    survivors = np.concatenate(kept)
    survivors = survivors[(np.concatenate(kept_lo) <= z_star).any(axis=1)]

    # Exact re-score, then the same rule over the chunk winners.
    z_c, t_c, degen = zip(*ordered_map(
        blocks.rescore, _batches(survivors, blocks.exact_rows), workers))
    z_c, t_c = np.stack(z_c), np.stack(t_c)
    pick = _lex_argmin(z_c, t_c)
    rounds = np.arange(n_rounds)
    return z_c[pick, rounds], t_c[pick, rounds], count, any(degen), blocks


def periodogram_slice(ts, spec, freqs, axis, grid, stats=None, weighting=None):
    """Misfit z along one frequency axis, the others held fixed.

    Returns the z values over ``grid``, every one from the exact kernel.
    Points where the varied frequency duplicates a fixed one are
    evaluated through the same rank-truncated solve as everywhere else.
    The search stages compute their slices inside the scan engine, from
    its columns, to the same bits.
    """
    if stats is None:
        stats = span_stats(ts)
    tuples = _cut(np.asarray(freqs, dtype=float), axis, np.asarray(grid, dtype=float))
    z = [evaluate_z(ts, spec, c, stats, weighting)[0]
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


def _stage(stage, ts, spec, grids, stats, weighting, workers) -> Periodogram:
    """One search stage: the engine on the series itself (R = 1), then,
    from the engine's columns and through its ``ordered_map``, a slice
    through the winner along every signal axis."""
    if spec.k1 < 1:
        raise ConfigError("grid search needs at least one signal (k1 >= 1)")
    if ts.n <= spec.eta + 1:
        raise ConfigError(
            f"need more than eta+1 = {spec.eta + 1} points, have {ts.n}")
    if stats is None:
        stats = span_stats(ts)
    z_min, best, count, degenerate, blocks = _scan(ts, spec, stats, weighting, grids,
                                                   ts.y[None], workers)
    best = best[0]
    return Periodogram(
        stage=stage, grids=grids, best=best, z_min=float(z_min[0]),
        slices=_slices(blocks, grids, best, workers),
        combinations=count, degenerate_hit=degenerate,
    )


def long_search(ts, spec, cfg: SearchConfig, stats=None, weighting=None, workers=1):
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
    return _stage("long", ts, spec, [grid] * spec.k1, stats, weighting, workers)


def short_search(ts, spec, cfg: SearchConfig, centers, stats=None, weighting=None,
                 workers=1):
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
    return _stage("short", ts, spec, grids, stats, weighting, workers)


def scan_rounds(ts, spec, grids, y_rounds, stats=None, weighting=None, workers=1):
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
        One resampled data vector per round.

    Returns
    -------
    z_min : ndarray, shape (R,)
    best : ndarray, shape (R, k1)

    Raises
    ------
    UnstableSearchError
        If no strictly descending tuple exists across the grids.
    """
    if stats is None:
        stats = span_stats(ts)
    z_min, best, _, _, _ = _scan(ts, spec, stats, weighting, grids, y_rounds, workers)
    return z_min, best
