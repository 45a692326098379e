"""Non-linear refinement and bootstrap uncertainty estimation.

Refinement polishes all parameters at once, frequencies included, with
a damped Gauss-Newton iteration (Levenberg style lambda adaptation on a
column-scaled step).  Steps are only ever accepted when they lower the
misfit, so the refined z can never exceed the grid value.

The polish is one kernel, ``_polish``, that advances a stack of R
independent problems at once: same times and weights, each row with its
own data and starting point.  Every row keeps its own state
(parameters, misfit, damping lambda, accepted steps, whether its
Jacobian is stale), and a row leaves the stack when it stops.  Each
pass

* recomputes, in one batched ``_jacobian`` call, the Jacobian of the
  rows that just accepted a step, and stops those whose gradient is
  flat;
* tries one lambda for every running row: one stacked factorisation of
  the augmented systems [J_w; sqrt(lambda) diag(scale)] through
  ``BatchSolver``, and one batched model evaluation at the trial
  points.

Rows stop independently, for one of the reasons in ``_STOPS``.  Every
stacked call works slice by slice with the same BLAS/LAPACK call one
row alone would make (design matrices, gemv, dot, SVD), so a row's
result is the same bits whichever rows share its stack.  ``refine`` is
the kernel on a stack of one.

The bootstrap resamples residuals with replacement, rebuilds synthetic
series y* = g + eps*, re-runs the short search stage on each draw over
the same candidate frequencies (``scan_rounds``), then fits and polishes
the rounds in contiguous blocks of about ``_BLOCK_ELEMENTS`` (n x eta)
elements, mapped in order over the worker threads.  Block composition
depends on the problem size alone, and the large stacked calls release
the interpreter lock, so blocks run on separate cores.  Spreads of the
per-draw estimates give the parameter uncertainties, and the draws feed
the instability diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gridsearch import SearchConfig, ordered_map, scan_rounds
from .linfit import BatchSolver, weighting_mode
from .model import (BetaVector, ModelSpec, design_matrix, param_names,
                    signal_values, summarize_signals)
from .timeseries import SpanStats, span_stats

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

# Convergence and damping controls for the Gauss-Newton loop.
_Z_REL_TOL = 1e-12
_GRAD_TOL = 1e-10
_LAMBDA0 = 1e-3
_LAMBDA_MAX = 1e12
_MAX_ITER = 200

# Why a polish stopped; ``_polish`` records indices into this tuple.
_STOPS = ("grad", "z-tol", "no-descent", "max-iter")
_GRAD, _Z_TOL, _NO_DESCENT, _CAPPED = range(len(_STOPS))

# Bootstrap rounds per block: this many elements over n x eta.  Keeps a
# block's stacked Jacobians, augmented systems and factors to a few MB.
_BLOCK_ELEMENTS = 100_000


@dataclass
class RefinedModel:
    """Polished parameters and fit quality at the final point.

    ``z_initial`` is the misfit at the starting parameters; monotone
    step acceptance guarantees ``z <= z_initial``.  ``stop`` says why the
    polish ended: ``grad`` (flat gradient), ``z-tol`` (negligible misfit
    change over an accepted step), ``no-descent`` (no damping factor
    lowers the misfit) or ``max-iter`` (step cap reached); ``converged``
    holds exactly for the first two.  It is None where no polish ran.
    """

    beta: BetaVector
    residuals: np.ndarray
    r_sum: float
    chi2: float | None
    z: float
    z_initial: float
    iterations: int
    converged: bool
    stop: str | None = None

    @property
    def stat(self) -> float:
        return self.r_sum if self.chi2 is None else self.chi2


def _weights(ts, mode):
    return 1.0 / ts.sigma if mode == "chi-square" else np.ones(ts.n)


def _linear_columns(spec: ModelSpec) -> np.ndarray:
    """Positions of the linear coefficients in the interleaved vector."""
    linear = np.ones(spec.eta, dtype=bool)
    linear[_freq_columns(spec)] = False
    return np.flatnonzero(linear)


def _dots(x):
    """x . x per row, each through the dot a 1-D ``x @ x`` makes."""
    return np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]


def _jacobian(t, spec: ModelSpec, params, stats: SpanStats):
    """d g / d p at interleaved parameter vectors.

    ``params`` is one vector (a BetaVector or shape (eta,)), giving an
    (n, eta) result, or a stack (R, eta), giving (R, n, eta).
    """
    if isinstance(params, BetaVector):
        params = params.interleaved(spec)
    params = np.asarray(params, dtype=float)
    p = np.atleast_2d(params)
    t = np.asarray(t, dtype=float)
    n = t.size
    jac = np.empty((p.shape[0], n, spec.eta))
    col = 0
    two_pi_t = 2.0 * np.pi * t
    for i in range(spec.k1):
        base = two_pi_t * p[:, col + 2 * spec.k2, None]
        dfreq = np.zeros((p.shape[0], n))
        for j in range(1, spec.k2 + 1):
            cj = np.cos(j * base)
            sj = np.sin(j * base)
            jac[:, :, col] = cj
            jac[:, :, col + 1] = sj
            dfreq += j * two_pi_t * (p[:, col + 1, None] * cj - p[:, col, None] * sj)
            col += 2
        jac[:, :, col] = dfreq
        col += 1
    if spec.k3 >= 0:
        tt = 2.0 * (t - stats.t_mid) / stats.delta_t
        power = np.ones(n)
        for k in range(spec.k3 + 1):
            if k:
                power = power * tt
            jac[:, :, col + k] = power
    return jac[0] if params.ndim == 1 else jac


def _residuals(t, y, w, spec, params, stats, cols):
    """Residuals, weighted residuals and weighted sums of squares of
    each parameter row against the matching row of ``y``; ``cols`` are
    the frequency and the linear positions in a row."""
    fcols, lcols = cols
    a = design_matrix(t, spec, params[:, fcols], stats)
    model = np.matmul(a, params[:, lcols, None])[:, :, 0]
    resid = y - model
    rw = resid * w
    return resid, rw, _dots(rw)


@dataclass
class _Polished:
    """Final state of every row of one ``_polish`` call."""

    params: np.ndarray  # (R, eta) interleaved parameters
    resid: np.ndarray   # (R, n) unweighted residuals
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


def _polish(t, y, w, spec, params, stats, max_iter) -> _Polished:
    """Damped Gauss-Newton polish of a stack of independent rows.

    Row r fits ``y[r]`` (shape (R, n)) from ``params[r]`` (shape
    (R, eta)) with weights ``w``.  Per row the iteration is: lambda
    starts at 1e-3 and moves x0.1 (down to 1e-15) on an accepted step,
    x10 on a rejected one; the row stops when the gradient is flat, when an
    accepted step changes z by at most 1e-12 relative, when lambda
    passes ``_LAMBDA_MAX`` or after ``max_iter`` accepted steps.
    Stopped rows leave the stack, so each pass works on running rows
    only.
    """
    params = np.array(params, dtype=float)
    n_rows, eta = params.shape
    n = t.size
    cols = (_freq_columns(spec), _linear_columns(spec))
    resid, rw, wsum = _residuals(t, y, w, spec, params, stats, cols)
    z0 = np.sqrt(wsum / n)
    out = _Polished(params.copy(), resid.copy(), wsum.copy(), z0,
                    np.zeros(n_rows, dtype=int), np.full(n_rows, _CAPPED))
    live = _Live(row=np.arange(n_rows), params=params, y=y, resid=resid,
                 rw=rw, wsum=wsum, z=z0.copy(), lam=np.full(n_rows, _LAMBDA0),
                 steps=np.zeros(n_rows, dtype=int),
                 stale=np.ones(n_rows, dtype=bool),
                 aug=np.zeros((n_rows, n + eta, eta)), scale=np.empty((n_rows, eta)))

    def retire(done, reason):
        rows = live.row[done]
        out.params[rows] = live.params[done]
        out.resid[rows] = live.resid[done]
        out.wsum[rows] = live.wsum[done]
        out.steps[rows] = live.steps[done]
        out.stop[rows] = reason
        live.keep(~done)

    if max_iter <= 0:
        live.keep(np.zeros(n_rows, dtype=bool))
    diag = np.arange(eta)
    ridge = n + diag
    while live.row.size:
        stale = live.stale
        if stale.any():
            rows = slice(None) if stale.all() else stale
            jac = _jacobian(t, spec, live.params[rows], stats)
            jac *= w[:, None]
            grad = np.matmul(jac.transpose(0, 2, 1), live.rw[rows][:, :, None])
            col_norm = np.sqrt(np.einsum("rij,rij->rj", jac, jac))
            col_norm[col_norm == 0.0] = 1.0
            live.aug[rows, :n] = jac
            live.scale[rows] = col_norm
            flat = np.zeros_like(stale)
            flat[rows] = (np.abs(grad) < _GRAD_TOL).all(axis=(1, 2))
            live.stale = np.zeros_like(stale)
            if flat.any():
                retire(flat, _GRAD)
                continue
        live.aug[:, ridge, diag] = np.sqrt(live.lam)[:, None] * live.scale
        rhs = np.zeros((live.row.size, n + eta, 1))
        rhs[:, :n, 0] = live.rw
        delta, _ = BatchSolver(live.aug).solve(rhs)
        trial = live.params + delta[:, :, 0]
        resid_t, rw_t, wsum_t = _residuals(t, live.y, w, spec, trial, stats, cols)
        better = np.isfinite(wsum_t) & (wsum_t < live.wsum)
        z, z_new = live.z, np.sqrt(wsum_t / n)
        settled = better & (z > 0.0) & (z - z_new <= _Z_REL_TOL * z)

        if better.all():
            live.params, live.resid, live.rw = trial, resid_t, rw_t
            live.wsum, live.z = wsum_t, z_new
        elif better.any():
            for state, value in ((live.params, trial), (live.resid, resid_t),
                                 (live.rw, rw_t)):
                np.copyto(state, value, where=better[:, None])
            np.copyto(live.wsum, wsum_t, where=better)
            np.copyto(live.z, z_new, where=better)
        live.lam *= np.where(better, 0.1, 10.0)
        np.maximum(live.lam, 1e-15, out=live.lam)
        live.steps += better
        live.stale = better

        # Only an accepted step can reach the cap, only a rejected one
        # can push lambda past its limit.
        capped = live.steps >= max_iter
        gone = live.lam > _LAMBDA_MAX
        done = settled | capped | gone
        if done.any():
            reason = np.where(settled, _Z_TOL, np.where(gone, _NO_DESCENT, _CAPPED))
            retire(done, reason[done])
    return out


def refine(ts, spec, beta0: BetaVector, stats=None, weighting=None,
           max_iter=_MAX_ITER) -> RefinedModel:
    """Damped Gauss-Newton polish of all parameters.

    Stops when the relative z change over an accepted step falls below
    1e-12, when the misfit gradient norm falls below 1e-10, when no
    damping factor yields a decrease, or after ``max_iter`` accepted
    steps; ``stop`` records which.
    """
    if stats is None:
        stats = span_stats(ts)
    mode = weighting_mode(ts, weighting)
    out = _polish(ts.t, ts.y[None, :], _weights(ts, mode), spec,
                  beta0.interleaved(spec)[None, :], stats, max_iter)
    resid = out.resid[0]
    wsum = float(out.wsum[0])
    if mode == "chi-square":
        chi2 = wsum
        r_sum = float(resid @ resid)
    else:
        chi2 = None
        r_sum = wsum
    stop = _STOPS[out.stop[0]]
    return RefinedModel(
        beta=BetaVector.from_interleaved(spec, out.params[0]), residuals=resid,
        r_sum=r_sum, chi2=chi2, z=float(np.sqrt(wsum / ts.n)),
        z_initial=float(out.z0[0]), iterations=int(out.steps[0]),
        converged=stop in ("grad", "z-tol"), stop=stop,
    )


def _linear_fit(ts, spec, tuples, y, stats, mode):
    """Linear coefficients at each row's frequency tuple against that
    row's series, as interleaved parameter rows, and the weighted
    residual sums of squares.  Each slice is the computation
    ``solve_linear`` makes for one tuple."""
    a = design_matrix(ts.t, spec, tuples, stats)
    if mode == "chi-square":
        a = a / ts.sigma[None, :, None]
        y = y / ts.sigma
    x, resid = BatchSolver(a).solve(y[:, :, None])
    params = np.empty((len(tuples), spec.eta))
    params[:, _freq_columns(spec)] = tuples
    params[:, _linear_columns(spec)] = x[:, :, 0]
    return params, _dots(resid[:, :, 0])


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
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        out[r] = g_fit + residuals[rng.integers(0, n, size=n)]
    return out


def _signal_amplitudes(summary) -> np.ndarray:
    return np.array([s.amplitude for s in summary.signals], dtype=float)


def _wrap_epoch(value, period, reference):
    if value is None or reference is None or not np.isfinite(period) or period <= 0:
        return value
    return value + period * np.round((reference - value) / period)


def bootstrap(ts, spec, cfg: SearchConfig, refined: RefinedModel, grids,
              n_rounds, seed, stats=None, weighting=None, refine_rounds=True,
              workers=1) -> BootstrapReport:
    """Residual bootstrap around a refined model.

    Parameters
    ----------
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
    if stats is None:
        stats = span_stats(ts)
    mode = weighting_mode(ts, weighting)
    g_fit = ts.y - refined.residuals
    y_rounds = _resample_rounds(g_fit, refined.residuals, n_rounds, seed)

    names = param_names(spec)
    eta = spec.eta
    draws = np.full((n_rounds, eta), np.nan)
    z_draws = np.full(n_rounds, np.nan)
    ok = np.zeros(n_rounds, dtype=bool)
    summaries = [None] * n_rounds

    if spec.k1 > 0:
        grid_step = float(min(g[1] - g[0] for g in grids if g.size > 1))
        _, best_tuples = scan_rounds(ts, spec, grids, y_rounds, stats, mode, workers)
    else:
        grid_step = 0.0
        best_tuples = np.zeros((n_rounds, 0))

    w = _weights(ts, mode)

    def fit_rounds(rows):
        y = y_rounds[rows]
        params, wsum = _linear_fit(ts, spec, best_tuples[rows], y, stats, mode)
        if refine_rounds:
            out = _polish(ts.t, y, w, spec, params, stats, _MAX_ITER)
            params, wsum = out.params, out.wsum
        z = np.sqrt(wsum / ts.n)
        return [(params[i], z[i], summarize_signals(
                    spec, BetaVector.from_interleaved(spec, params[i]), stats))
                for i in range(len(rows))]

    def fit_block(rows):
        try:
            return fit_rounds(rows)
        except np.linalg.LinAlgError:
            if len(rows) == 1:
                return [None]
        return [res for r in rows for res in fit_block(range(r, r + 1))]

    per_block = max(1, _BLOCK_ELEMENTS // (ts.n * eta))
    blocks = [range(r0, min(r0 + per_block, n_rounds))
              for r0 in range(0, n_rounds, per_block)]
    for rows, results in zip(blocks, ordered_map(fit_block, blocks, workers)):
        for r, res in zip(rows, results):
            if res is not None:
                draws[r], z_draws[r], summaries[r] = res
                ok[r] = True

    good = draws[ok]
    n_ok = int(ok.sum())
    if n_ok < 2:
        raise ConfigError(f"only {n_ok} bootstrap rounds succeeded")
    param_sigma = np.std(good, axis=0, ddof=1)

    ref_summary = summarize_signals(spec, refined.beta, stats)
    summary_sigma = {}
    good_summaries = [s for s in summaries if s is not None]
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
    for k in range(spec.k3 + 1):
        col = eta - (spec.k3 + 1) + k
        summary_sigma[f"M_{k}"] = float(param_sigma[col])

    flags = diagnose_stability(
        ts, spec, refined, ref_summary, good, good_summaries,
        grid_step=grid_step, f_min=cfg.f_min, f_max=cfg.f_max, stats=stats,
    )
    return BootstrapReport(
        n_rounds=n_rounds, n_ok=n_ok, seed=seed, param_names=names,
        draws=good, z_draws=z_draws[ok], param_sigma=param_sigma,
        summary_sigma=summary_sigma, flags=flags,
        failed_rounds=int(n_rounds - n_ok), grid_step=grid_step,
    )


def _freq_columns(spec: ModelSpec) -> np.ndarray:
    per = 2 * spec.k2 + 1
    return np.array([i * per + 2 * spec.k2 for i in range(spec.k1)], dtype=np.intp)


def _pair_cancellation(ts, spec, beta, stats, amps, threshold):
    """True when two inflated components nearly cancel at the data times."""
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
                       summaries, *, grid_step, f_min, f_max, stats) -> list[str]:
    """Instability flags from the refined model and its bootstrap draws.

    IntersectingFrequencies: two signal frequencies cross or come
    closer than one grid step, in the refined model or in any round.
    DispersingAmplitudes: an amplitude spread exceeds the amplitude
    itself, or inflated components cancel pairwise.  LeakingPeriods: a
    refined frequency leaves the searched range in the point estimate
    or in any round.
    """
    flags = []
    if spec.k1 == 0:
        return flags
    fcols = _freq_columns(spec)
    freq_draws = draws[:, fcols] if draws.size else np.zeros((0, spec.k1))
    all_freqs = np.vstack([refined.beta.freqs[None, :], freq_draws])

    intersecting = False
    if spec.k1 >= 2:
        diffs = all_freqs[:, :-1] - all_freqs[:, 1:]
        intersecting = bool((diffs <= 0).any() or (np.abs(diffs) < grid_step).any())
    if intersecting:
        flags.append(FLAG_INTERSECTING)

    data_range = float(np.ptp(ts.y))
    ref_amps = _signal_amplitudes(ref_summary)
    amp_draws = np.array([_signal_amplitudes(s) for s in summaries]) \
        if summaries else np.zeros((0, spec.k1))
    dispersing = False
    if amp_draws.shape[0] >= 2:
        amp_sigma = np.std(amp_draws, axis=0, ddof=1)
        dispersing = bool((amp_sigma > ref_amps).any())
    if not dispersing and spec.k1 >= 2:
        blow = 3.0 * data_range
        if (ref_amps > blow).sum() >= 2 and _pair_cancellation(
                ts, spec, refined.beta, stats, ref_amps, blow):
            dispersing = True
        else:
            for r in range(amp_draws.shape[0]):
                if (amp_draws[r] > blow).sum() >= 2:
                    beta = BetaVector.from_interleaved(spec, draws[r])
                    if _pair_cancellation(ts, spec, beta, stats, amp_draws[r], blow):
                        dispersing = True
                        break
    if dispersing:
        flags.append(FLAG_DISPERSING)

    leaking = bool(((all_freqs < f_min) | (all_freqs > f_max)).any())
    if leaking:
        flags.append(FLAG_LEAKING)
    return flags
