"""Non-linear refinement and bootstrap uncertainty estimation.

Refinement polishes the k1 frequencies by variable projection (Golub &
Pereyra 1973, SIAM J. Numer. Anal. 10, 413).  At fixed frequencies f
the model is linear, so the polish minimises the profile residual
r(f) = y_w - A_w(f) A_w(f)^+ y_w, the misfit the grid scans minimise:
every trial point is one linear least squares fit through
``linfit.fit``, and the linear coefficients are always that fit's.
The step is Levenberg-Marquardt on f alone, with Kaufman's Jacobian
(1975, BIT 15, 49) J_i = -(I - U U^T) dA_w/df_i x, for which J^T r is
the exact gradient of ||r||^2 / 2.  Steps are only ever accepted when
they lower the misfit, so the refined z can never exceed the grid value.

The polish is one kernel, ``_polish``, that advances a stack of R
independent problems at once: same times and weights, each row with its
own data and starting frequencies.  Every row keeps its own state
(frequencies, linear fit, misfit, damping lambda, accepted steps, the
SVD of its scaled Jacobian), and a row leaves the stack when it stops.
Each pass tries one lambda for every running row: one stacked
factorisation of the design matrices at the trial points, one batched
Jacobian there, and, for the rows that accept their step, one stacked
n x k1 SVD that serves every damped step from the new point.

Rows stop independently, for one of the reasons in ``_STOPS``; the
tests are scale-free (``_polish``).  Every stacked call works slice by
slice with the same BLAS/LAPACK call one row alone would make (design
matrices, gemv, dot, SVD), so a row's result is the same bits whichever
rows share its stack.  ``refine`` is the kernel on a stack of one.

The bootstrap resamples residuals with replacement, rebuilds synthetic
series y* = g + eps*, re-runs the short search stage on each draw over
the same candidate frequencies (``scan_rounds``), then fits, polishes
and summarises the rounds in contiguous blocks of about
``_BLOCK_ELEMENTS`` (n x eta) elements, mapped in order over the worker
threads; a block's summaries are one stacked ``summarize_signals``
call.  Block composition
depends on the problem size alone, and the large stacked calls release
the interpreter lock, so blocks run on separate cores.  Spreads of the
per-draw estimates give the parameter uncertainties, and the draws feed
the instability diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import ConfigError
from .gridsearch import SearchConfig, ordered_map, scan_rounds
from .linfit import RowFit, fit, sumsq, unweighted, weighted_design
from .model import (BetaVector, ModelSpec, interleave, layout, param_names,
                    signal_values, summarize_signals)
from .timeseries import span_stats

# The per-round entry points the stacked kernel replaced.  The
# benchmark's call-site tracer (bench/tracer.py) wraps these names on
# this module, so they stay importable from it.
from .linfit import fit_columns, solve_linear  # noqa: F401
from .model import eval_model  # noqa: F401

__all__ = ["RefinedModel", "BootstrapReport", "refine", "bootstrap",
           "diagnose_stability", "FLAG_INTERSECTING", "FLAG_DISPERSING",
           "FLAG_LEAKING"]

FLAG_INTERSECTING = "IntersectingFrequencies"
FLAG_DISPERSING = "DispersingAmplitudes"
FLAG_LEAKING = "LeakingPeriods"

# Stop tests and damping of the projected Levenberg-Marquardt loop.
# _GRAD_TOL bounds ||J^T r|| / (||J||_F ||r||): at the minimum it falls
# to 1e-11 or below within a few steps, and at 1e-9 the z still to gain
# is far below _Z_REL_TOL.  _STEP_TOL is in cycles over the span
# (|delta f| delta_t), far below any frequency's statistical error.
_GRAD_TOL = 1e-9
_Z_REL_TOL = 1e-12
_STEP_TOL = 1e-10
_LAMBDA0 = 1e-3
_LAMBDA_MAX = 1e12
_MAX_ITER = 200

# Why a polish stopped; ``_polish`` records indices into this tuple.
_STOPS = ("grad", "z-tol", "no-descent", "max-iter")
_GRAD, _Z_TOL, _NO_DESCENT, _CAPPED = range(len(_STOPS))

# Bootstrap rounds per block: this many elements over n x eta.  Keeps a
# block's stacked design matrices, factors and Jacobians to a few MB.
_BLOCK_ELEMENTS = 100_000


@dataclass
class RefinedModel:
    """Polished parameters and fit quality at the final point.

    ``z_initial`` is the misfit of the linear fit at the starting
    frequencies; monotone step acceptance guarantees ``z <= z_initial``.
    ``stop`` says why the polish ended: ``grad`` (gradient flat relative
    to ||J|| ||r||), ``z-tol`` (a negligible step no longer lowers the
    misfit), ``no-descent`` (no damping factor lowers the misfit) or
    ``max-iter`` (step cap reached); ``converged`` holds exactly for the
    first two.  A pure trend, with no frequency to polish, stops on
    ``grad`` after 0 steps.
    """

    beta: BetaVector
    residuals: np.ndarray
    r_sum: float
    chi2: float | None
    z: float
    z_initial: float
    iterations: int
    converged: bool
    stop: str

    @property
    def stat(self) -> float:
        return self.r_sum if self.chi2 is None else self.chi2


def _fit(t, yw, sigma, spec, freqs, stats) -> RowFit:
    """``linfit.fit`` of row r of the weighted series ``yw`` (R, n) at the
    frequency tuple ``freqs[r]``, design rows divided by ``sigma``."""
    return fit(weighted_design(t, spec, freqs, stats, sigma), yw)


def _jacobian(fit: RowFit, spec: ModelSpec, tau) -> np.ndarray:
    """Kaufman's Jacobian of the profile residuals, transposed: shape
    (R, k1, n), row i of slice r being J_i = -(I - U U^T) dA_w/df_i x.

    The derivative columns d_i = dA_w/df_i x are built from the cos/sin
    columns of A_w at ``tau`` = t - t_mid instead of t.  The difference,
    t_mid times a combination of those same columns, lies in the range
    of A_w, so the projection removes it exactly; at tau it stays well
    conditioned far from t = 0.  The projection is the explicit
    residual of the least squares fit of d_i on A_w.
    """
    a, x = fit.solver.a, fit.x
    d = np.zeros((a.shape[0], spec.k1, a.shape[1]))
    col = 0
    for i in range(spec.k1):
        for j in range(1, spec.k2 + 1):
            d[:, i] += (2.0 * np.pi * j * tau) * (x[:, col + 1, None] * a[:, :, col]
                                                  - x[:, col, None] * a[:, :, col + 1])
            col += 2
    dt = d.transpose(0, 2, 1)
    return np.matmul(a, fit.solver.solve(dt)).transpose(0, 2, 1) - d


@dataclass
class _Polished:
    """Final state of every row of one ``_polish`` call."""

    params: np.ndarray  # (R, eta) interleaved parameters
    rw: np.ndarray      # (R, n) weighted residuals
    wsum: np.ndarray    # (R,) weighted residual sum of squares
    z0: np.ndarray      # (R,) misfit at the start
    steps: np.ndarray   # (R,) accepted steps
    stop: np.ndarray    # (R,) indices into _STOPS


class _Live:
    """Per-row state of the rows of one ``_polish`` call still running."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask):
        for name, value in list(vars(self).items()):
            setattr(self, name, value[mask])

    def put(self, mask, **arrays):
        """Overwrite the masked rows of the named arrays."""
        for name, value in arrays.items():
            getattr(self, name)[mask] = value


def _step_factors(jt, rw, wsum):
    """Per row: whether the gradient J^T r is flat, and the SVD of the
    column-scaled Jacobian that every damped step from this point uses.

    Flat means ||J^T r|| <= _GRAD_TOL ||J||_F ||r||.  With J scaled to
    unit columns, J D^-1 = P S Q^T, the step at damping lambda is
    delta = -D^-1 Q diag(s / (s^2 + lambda)) P^T r.
    """
    grad = np.matmul(jt, rw[:, :, None])[:, :, 0]
    col2 = sumsq(jt)
    flat = np.sqrt(sumsq(grad)) <= _GRAD_TOL * np.sqrt(col2.sum(axis=1) * wsum)
    scale = np.sqrt(col2)
    scale[scale == 0.0] = 1.0
    q, s, pt = np.linalg.svd(jt / scale[:, :, None], full_matrices=False)
    return flat, dict(scale=scale, q=q, s=s, ptr=np.matmul(pt, rw[:, :, None])[:, :, 0])


def _polish(t, y, sigma, spec, freqs, stats, max_iter) -> _Polished:
    """Variable-projection Levenberg-Marquardt polish of a stack of
    independent rows over their frequencies alone.

    Row r fits ``y[r]`` (shape (R, n)) from the frequency tuple
    ``freqs[r]`` (shape (R, k1)); the linear coefficients are always the
    least squares fit at the current frequencies, so each row minimises
    its profile misfit, the one the grid scans minimise.  Per row,
    lambda starts at 1e-3 and moves x0.1 (down to 1e-15) on an accepted
    step, x10 on a rejected one.  A row stops, for the first that holds
    of

    * ``grad``: at an accepted point, ||J^T r|| <= _GRAD_TOL ||J||_F ||r||;
    * ``z-tol``: a step that moves no frequency by more than _STEP_TOL
      cycles over the span (|delta f| delta_t) lowers z by at most
      _Z_REL_TOL relative, or not at all;
    * ``no-descent``: lambda passes ``_LAMBDA_MAX``;
    * ``max-iter``: ``max_iter`` accepted steps.

    Stopped rows leave the stack, so each pass works on running rows
    only.  ``max_iter <= 0`` returns the linear fit at ``freqs``.
    """
    freqs = np.array(freqs, dtype=float)
    n_rows = freqs.shape[0]
    n = t.size
    yw = y if sigma is None else y / sigma
    fit = _fit(t, yw, sigma, spec, freqs, stats)
    z0 = np.sqrt(fit.wsum / n)
    out = _Polished(interleave(spec, freqs, fit.x), fit.rw.copy(),
                    fit.wsum.copy(), z0, np.zeros(n_rows, dtype=int),
                    np.full(n_rows, _CAPPED))
    if max_iter <= 0:
        return out
    tau = t - stats.t_mid
    flat, factors = _step_factors(_jacobian(fit, spec, tau), fit.rw, fit.wsum)
    live = _Live(row=np.arange(n_rows), freqs=freqs, yw=yw, x=fit.x, rw=fit.rw,
                 wsum=fit.wsum, z=z0.copy(), lam=np.full(n_rows, _LAMBDA0),
                 steps=np.zeros(n_rows, dtype=int), **factors)

    def retire(done, reason):
        rows = live.row[done]
        out.params[rows] = interleave(spec, live.freqs[done], live.x[done])
        out.rw[rows] = live.rw[done]
        out.wsum[rows] = live.wsum[done]
        out.steps[rows] = live.steps[done]
        out.stop[rows] = reason
        live.keep(~done)

    if flat.any():
        retire(flat, _GRAD)
    while live.row.size:
        gain = live.s / (live.s * live.s + live.lam[:, None])
        delta = -np.matmul(live.q, (gain * live.ptr)[:, :, None])[:, :, 0] / live.scale
        trial = live.freqs + delta
        finite = np.isfinite(trial).all(axis=1)
        trial[~finite] = live.freqs[~finite]
        fit = _fit(t, live.yw, sigma, spec, trial, stats)
        better = finite & np.isfinite(fit.wsum) & (fit.wsum < live.wsum)
        z, z_new = live.z, np.sqrt(fit.wsum / n)
        cycles = np.abs(delta).max(axis=1, initial=0.0) * stats.delta_t
        small = finite & (cycles <= _STEP_TOL)
        settled = small & ~(z - z_new > _Z_REL_TOL * z)

        flat = np.zeros_like(better)
        if better.any():
            live.put(better, freqs=trial[better], x=fit.x[better],
                     rw=fit.rw[better], wsum=fit.wsum[better], z=z_new[better])
            flat[better], factors = _step_factors(
                _jacobian(fit, spec, tau)[better], live.rw[better], live.wsum[better])
            live.put(better, **factors)
        live.lam *= np.where(better, 0.1, 10.0)
        np.maximum(live.lam, 1e-15, out=live.lam)
        live.steps += better

        # Only an accepted step can reach the cap, only a rejected one
        # can push lambda past its limit.
        capped = live.steps >= max_iter
        gone = live.lam > _LAMBDA_MAX
        done = flat | settled | capped | gone
        if done.any():
            reason = np.select([flat, settled, gone], [_GRAD, _Z_TOL, _NO_DESCENT],
                               _CAPPED)
            retire(done, reason[done])
    return out


def refine(ts, spec, freqs, max_iter=_MAX_ITER) -> RefinedModel:
    """Polish the frequency tuple ``freqs`` by variable projection.

    ``freqs`` (shape (k1,), empty for a pure trend; another length is a
    ConfigError) is the start.  Only the k1 frequencies are iterated;
    the linear coefficients are the least squares fit at each trial
    point, so ``z_initial`` is the linear fit's misfit at ``freqs``.
    ``stop`` records why the polish ended: a flat gradient relative to
    ||J|| ||r|| (``grad``, at once for a pure trend), a negligible step
    that no longer lowers z (``z-tol``), no damping factor that lowers z
    (``no-descent``) or ``max_iter`` accepted steps (``max-iter``).
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size != spec.k1:
        raise ConfigError(f"expected {spec.k1} frequencies, got {freqs.size}")
    out = _polish(ts.t, ts.y[None, :], ts.sigma, spec, freqs.reshape(1, spec.k1),
                  span_stats(ts), max_iter)
    wsum = float(out.wsum[0])
    residuals, r_sum, chi2 = unweighted(out.rw[0], wsum, ts.sigma)
    stop = _STOPS[out.stop[0]]
    return RefinedModel(
        beta=BetaVector.from_interleaved(spec, out.params[0]), residuals=residuals,
        r_sum=r_sum, chi2=chi2, z=float(np.sqrt(wsum / ts.n)),
        z_initial=float(out.z0[0]), iterations=int(out.steps[0]),
        converged=stop in ("grad", "z-tol"), stop=stop,
    )


@dataclass
class BootstrapReport:
    """Spreads and diagnostics from residual-bootstrap rounds.

    ``draws`` holds one interleaved parameter vector per successful
    round, ``param_sigma`` their standard deviation.  ``summary_sigma``
    maps derived quantity names (P_i, A_i, epochs, M_k) to spreads;
    epoch draws are wrapped to the representative nearest the reference
    epoch before taking the spread.
    """

    n_rounds: int
    n_ok: int
    seed: int
    param_names: list[str]
    draws: np.ndarray
    z_draws: np.ndarray
    param_sigma: np.ndarray
    summary_sigma: dict[str, float]
    flags: list[str]
    failed_rounds: int
    grid_step: float


def _resample_rounds(g_fit, residuals, n_rounds, seed):
    """Synthetic series y* = g + eps*, one row per round.

    Each round draws from an independently spawned generator keyed by
    the round index, so round r is identical whatever n_rounds is and
    however rounds are scheduled.
    """
    n = g_fit.size
    out = np.empty((n_rounds, n))
    for r in range(n_rounds):
        rng = default_rng(SeedSequence(seed, spawn_key=(r,)))
        out[r] = g_fit + residuals[rng.integers(0, n, size=n)]
    return out


def _wrap_epoch(value, period, reference):
    if value is None or reference is None or not np.isfinite(period) or period <= 0:
        return value
    return value + period * np.round((reference - value) / period)


def bootstrap(ts, spec, cfg: SearchConfig | None, refined: RefinedModel, grids,
              n_rounds, seed, *, refine_rounds=True, workers=1) -> BootstrapReport:
    """Residual bootstrap around a refined model.

    Every round is fitted as ``ts`` is: by chi-square when it has a
    sigma column.

    Parameters
    ----------
    cfg : SearchConfig or None
        The searched range, for the LeakingPeriods flag; None only for
        a pure trend (k1 = 0), which has no frequencies to flag.
    grids : list of ndarray
        The short-stage per-signal candidate frequencies; every round
        scans exactly these tuples before its own refinement.
    refine_rounds : bool
        When False, rounds stop at the grid solution (faster, slightly
        narrower spreads).

    Notes
    -----
    Rounds that fail numerically are dropped and counted in
    ``failed_rounds``: a block whose stacked factorisation fails is
    re-run one round at a time, so only the rounds that fail alone are
    lost.  At least two successful rounds are required to form a
    spread.
    """
    if n_rounds < 2:
        raise ConfigError("bootstrap needs at least 2 rounds")
    stats = span_stats(ts)
    g_fit = ts.y - refined.residuals
    y_rounds = _resample_rounds(g_fit, refined.residuals, n_rounds, seed)

    names = param_names(spec)
    eta = spec.eta
    if spec.k1 > 0:
        grid_step = float(min(g[1] - g[0] for g in grids if g.size > 1))
        _, best_tuples = scan_rounds(ts, spec, grids, y_rounds, workers)
    else:
        grid_step = 0.0
        best_tuples = np.zeros((n_rounds, 0))

    def fit_block(rows):
        """(params, z, summary) of each round of ``rows`` that succeeds."""
        try:
            out = _polish(ts.t, y_rounds[rows], ts.sigma, spec, best_tuples[rows], stats,
                          _MAX_ITER if refine_rounds else 0)
            z = np.sqrt(out.wsum / ts.n)
            return list(zip(out.params, z, summarize_signals(spec, out.params, stats)))
        except np.linalg.LinAlgError:
            if len(rows) == 1:
                return []
        return [res for r in rows for res in fit_block(range(r, r + 1))]

    per_block = max(1, _BLOCK_ELEMENTS // (ts.n * eta))
    blocks = [range(r0, min(r0 + per_block, n_rounds))
              for r0 in range(0, n_rounds, per_block)]
    rounds = [res for block in ordered_map(fit_block, blocks, workers) for res in block]
    n_ok = len(rounds)
    if n_ok < 2:
        raise ConfigError(f"only {n_ok} bootstrap rounds succeeded")
    params, z_draws, good_summaries = zip(*rounds)
    good = np.array(params)
    param_sigma = np.std(good, axis=0, ddof=1)

    ref_summary = summarize_signals(spec, refined.beta, stats)
    summary_sigma = {}
    for i in range(spec.k1):
        ref = ref_summary.signals[i]
        periods = np.array([s.signals[i].period for s in good_summaries])
        amps = np.array([s.signals[i].amplitude for s in good_summaries])
        summary_sigma[f"P_{i + 1}"] = float(np.std(periods, ddof=1))
        summary_sigma[f"A_{i + 1}"] = float(np.std(amps, ddof=1))
        for name in ("t_max1", "t_min1", "t_max2", "t_min2"):
            ref_e = getattr(ref, name)
            vals = [
                _wrap_epoch(getattr(s.signals[i], name), s.signals[i].period, ref_e)
                for s in good_summaries
            ]
            vals = [v for v in vals if v is not None]
            key = f"{name}_{i + 1}"
            if ref_e is not None and len(vals) >= 2:
                summary_sigma[key] = float(np.std(np.asarray(vals), ddof=1))
            elif ref_e is not None:
                summary_sigma[key] = float("nan")
    for k in range(spec.n_trend):
        summary_sigma[f"M_{k}"] = float(param_sigma[eta - spec.n_trend + k])

    flags = diagnose_stability(
        ts, spec, refined, ref_summary, good, good_summaries,
        grid_step=grid_step, f_min=cfg.f_min, f_max=cfg.f_max,
    ) if spec.k1 else []
    return BootstrapReport(
        n_rounds=n_rounds, n_ok=n_ok, seed=seed, param_names=names,
        draws=good, z_draws=np.array(z_draws), param_sigma=param_sigma,
        summary_sigma=summary_sigma, flags=flags,
        failed_rounds=int(n_rounds - n_ok), grid_step=grid_step,
    )


def _pair_cancellation(ts, spec, params, amps, threshold):
    """True when two components of the interleaved parameter row
    ``params`` with amplitudes above ``threshold`` nearly cancel at the
    data times."""
    beta = BetaVector.from_interleaved(spec, params)
    stats = span_stats(ts)
    big = np.flatnonzero(amps > threshold)
    for ai in range(big.size):
        for bi in range(ai + 1, big.size):
            i, j = int(big[ai]), int(big[bi])
            hsum = (signal_values(ts.t, spec, beta, stats, i)
                    + signal_values(ts.t, spec, beta, stats, j))
            if np.ptp(hsum) <= threshold / 3.0:
                return True
    return False


def diagnose_stability(ts, spec, refined: RefinedModel, ref_summary, draws,
                       summaries, *, grid_step, f_min, f_max) -> list[str]:
    """Instability flags from the refined model and its bootstrap draws.

    IntersectingFrequencies: two signal frequencies cross or come
    closer than one grid step, in the refined model or in any round.
    DispersingAmplitudes: an amplitude spread over the rounds exceeds
    the refined amplitude, or inflated components cancel pairwise in
    the refined model or in any round.  LeakingPeriods: a refined
    frequency leaves the searched range in the point estimate or in any
    round.
    """
    if spec.k1 == 0:
        return []
    # Row 0 is the refined model, rows 1.. the rounds.
    params = np.vstack([refined.beta.interleaved(spec),
                        np.reshape(draws, (-1, spec.eta))])
    amps = np.array([[s.amplitude for s in summary.signals]
                     for summary in (ref_summary, *summaries)], dtype=float)
    freqs = params[:, layout(spec)[0]]
    flags = []

    diffs = freqs[:, :-1] - freqs[:, 1:]
    if ((diffs <= 0) | (np.abs(diffs) < grid_step)).any():
        flags.append(FLAG_INTERSECTING)

    spread = len(amps) >= 3 and (np.std(amps[1:], axis=0, ddof=1) > amps[0]).any()
    blow = 3.0 * float(np.ptp(ts.y))
    inflated = np.flatnonzero((amps > blow).sum(axis=1) >= 2)
    if spread or any(_pair_cancellation(ts, spec, params[r], amps[r], blow)
                     for r in inflated):
        flags.append(FLAG_DISPERSING)

    if ((freqs < f_min) | (freqs > f_max)).any():
        flags.append(FLAG_LEAKING)
    return flags
