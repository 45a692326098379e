"""Non-linear refinement and bootstrap uncertainty estimation.

Refinement polishes all parameters at once, frequencies included, with
a damped Gauss-Newton iteration (Levenberg style lambda adaptation on a
column-scaled step).  Steps are only ever accepted when they lower the
misfit, so the refined z can never exceed the grid value.

The bootstrap resamples residuals with replacement, rebuilds synthetic
series y* = g + eps*, and re-runs the short search stage plus
refinement on each draw over the same candidate frequencies.  Spreads
of the per-draw estimates give the parameter uncertainties, and the
draws feed the instability diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .gridsearch import SearchConfig, ordered_map, scan_rounds
from .linfit import fit_columns, solve_linear, weighting_mode
from .model import (BetaVector, ModelSpec, design_matrix, eval_model,
                    param_names, signal_values, summarize_signals)
from .timeseries import SpanStats, TimeSeries, span_stats

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


@dataclass
class RefinedModel:
    """Polished parameters and fit quality at the final point.

    ``z_initial`` is the misfit at the starting parameters; monotone
    step acceptance guarantees ``z <= z_initial``.
    """

    beta: BetaVector
    residuals: np.ndarray
    r_sum: float
    chi2: float | None
    z: float
    z_initial: float
    iterations: int
    converged: bool

    @property
    def stat(self) -> float:
        return self.r_sum if self.chi2 is None else self.chi2


def _jacobian(t, spec: ModelSpec, beta: BetaVector, stats: SpanStats):
    """d g / d p for the interleaved parameter vector."""
    t = np.asarray(t, dtype=float)
    n = t.size
    jac = np.empty((n, spec.eta))
    col = 0
    two_pi_t = 2.0 * np.pi * t
    for i in range(spec.k1):
        coeffs = beta.signal_coeffs(spec, i)
        base = two_pi_t * beta.freqs[i]
        dfreq = np.zeros(n)
        for j in range(1, spec.k2 + 1):
            cj = np.cos(j * base)
            sj = np.sin(j * base)
            jac[:, col] = cj
            jac[:, col + 1] = sj
            dfreq += j * two_pi_t * (coeffs[j - 1, 1] * cj - coeffs[j - 1, 0] * sj)
            col += 2
        jac[:, col] = dfreq
        col += 1
    if spec.k3 >= 0:
        tt = 2.0 * (t - stats.t_mid) / stats.delta_t
        power = np.ones(n)
        for k in range(spec.k3 + 1):
            if k:
                power = power * tt
            jac[:, col + k] = power
    return jac


def refine(ts, spec, beta0: BetaVector, stats=None, weighting=None,
           max_iter=_MAX_ITER) -> RefinedModel:
    """Damped Gauss-Newton polish of all parameters.

    Stops when the relative z change over an accepted step falls below
    1e-12, when the misfit gradient norm falls below 1e-10, or when no
    damping factor yields a decrease (``converged`` False in the last
    case only if neither criterion was met).
    """
    if stats is None:
        stats = span_stats(ts)
    mode = weighting_mode(ts, weighting)
    w = 1.0 / ts.sigma if mode == "chi-square" else np.ones(ts.n)
    p = beta0.interleaved(spec).copy()

    def misfit(pvec):
        beta = BetaVector.from_interleaved(spec, pvec)
        resid = ts.y - eval_model(ts.t, spec, beta, stats)
        rw = resid * w
        return beta, resid, rw, float(rw @ rw)

    beta, resid, rw, s_sum = misfit(p)
    z0 = float(np.sqrt(s_sum / ts.n))
    z = z0
    lam = _LAMBDA0
    accepted = 0
    converged = False
    for _ in range(max_iter):
        jw = _jacobian(ts.t, spec, beta, stats) * w[:, None]
        grad = jw.T @ rw
        if np.max(np.abs(grad), initial=0.0) < _GRAD_TOL:
            converged = True
            break
        scale = np.sqrt(np.einsum("ij,ij->j", jw, jw))
        scale[scale == 0.0] = 1.0
        stepped = False
        while lam <= _LAMBDA_MAX:
            aug = np.vstack([jw, np.sqrt(lam) * np.diag(scale)])
            rhs = np.concatenate([rw, np.zeros(spec.eta)])
            delta, _, _ = fit_columns(aug, rhs)
            trial = p + delta
            beta_t, resid_t, rw_t, s_t = misfit(trial)
            if np.isfinite(s_t) and s_t < s_sum:
                p, beta, resid, rw, s_sum = trial, beta_t, resid_t, rw_t, s_t
                lam = max(lam * 0.1, 1e-15)
                accepted += 1
                stepped = True
                break
            lam *= 10.0
        if not stepped:
            break
        z_new = float(np.sqrt(s_sum / ts.n))
        if z > 0.0 and (z - z_new) <= _Z_REL_TOL * z:
            z = z_new
            converged = True
            break
        z = z_new

    if mode == "chi-square":
        chi2 = s_sum
        r_sum = float(resid @ resid)
    else:
        chi2 = None
        r_sum = s_sum
    return RefinedModel(
        beta=beta, residuals=resid, r_sum=r_sum, chi2=chi2,
        z=float(np.sqrt(s_sum / ts.n)), z_initial=z0,
        iterations=accepted, converged=converged,
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
    ``failed_rounds``.  At least two successful rounds are required to
    form a spread.
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

    def run_round(r):
        series = TimeSeries(ts.t, y_rounds[r], ts.sigma)
        fit = solve_linear(series, spec, best_tuples[r], stats, mode)
        if refine_rounds:
            res = refine(series, spec, fit.beta, stats, mode)
            beta, z = res.beta, res.z
        else:
            beta, z = fit.beta, fit.z
        return beta, z, summarize_signals(spec, beta, stats)

    def handle(r):
        try:
            beta, z, summ = run_round(r)
        except np.linalg.LinAlgError:
            return
        draws[r] = beta.interleaved(spec)
        z_draws[r] = z
        summaries[r] = summ
        ok[r] = True

    for _ in ordered_map(handle, range(n_rounds), workers):
        pass

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
