"""Variable-projection polish, bootstrap spreads and instability diagnostics."""

import functools
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcmethod import (
    MODELS,
    AnalysisOptions,
    BetaVector,
    ConfigError,
    ModelSpec,
    SearchConfig,
    SimulationSpec,
    TimeSeries,
    analyze,
    long_search,
    model_truth,
    refine,
    short_search,
    simulate,
    span_stats,
)
from dcmethod.refine import (
    FLAG_DISPERSING,
    FLAG_INTERSECTING,
    FLAG_LEAKING,
    RefinedModel,
    _fit,
    _jacobian,
    _resample_rounds,
    _wrap_epoch,
    bootstrap,
    diagnose_stability,
)
from dcmethod.linfit import solve_linear
from dcmethod.model import eval_model, summarize_signals


def sine_series(n=60, seed=0, noise=0.05, f=1.4):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.random(n))
    t[0], t[-1] = 0.0, 1.0
    y = np.cos(2 * np.pi * f * (t - 0.3)) + 1.0 + rng.normal(0, noise, n)
    return TimeSeries(t, y, np.full(n, max(noise, 1e-9)))


# ---------------------------------------------------------------------------
# profile gradient
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("t0", [0.0, 1e3])
def test_profile_gradient_matches_finite_differences(weighted, t0):
    # d ||r(f)||^2 / df = 2 J^T r for Kaufman's J, at any time origin
    spec = ModelSpec(2, 2, 1)
    rng = np.random.default_rng(2)
    t = t0 + np.sort(rng.random(25))
    stats = span_stats(TimeSeries(t, np.zeros(25)))
    freqs = np.array([[2.3, 1.1]])
    y = eval_model(t, spec, BetaVector(freqs[0] * 1.01, rng.normal(size=spec.n_linear)),
                   stats) + rng.normal(0, 0.1, 25)
    sigma = rng.uniform(0.5, 2.0, 25) if weighted else None
    yw = (y if sigma is None else y / sigma)[None, :]
    fit = _fit(t, yw, sigma, spec, freqs, stats)
    jt = _jacobian(fit, spec, t - stats.t_mid)
    grad = 2.0 * np.matmul(jt, fit.rw[:, :, None])
    # the columns are projected off the range of A_w, which holds the
    # t_mid part of the derivative columns: any time origin gives them
    a = fit.solver.a[0]
    assert np.abs(a.T @ jt[0].T).max() <= 1e-12 * np.abs(a).sum(axis=0).max() \
        * np.abs(jt).sum(axis=2).max()
    assert np.allclose(_jacobian(fit, spec, t), jt, rtol=0,
                       atol=1e-9 * np.abs(jt).max())
    eps = 1e-5
    for i in range(spec.k1):
        df = np.zeros_like(freqs)
        df[0, i] = eps
        hi = _fit(t, yw, sigma, spec, freqs + df, stats).wsum[0]
        lo = _fit(t, yw, sigma, spec, freqs - df, stats).wsum[0]
        fd = (hi - lo) / (2 * eps)
        assert abs(fd - grad[0, i, 0]) <= 1e-6 * np.linalg.norm(grad), f"frequency {i}"


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_never_increases_misfit():
    ts = sine_series(seed=3)
    spec = ModelSpec(1, 1, 0)
    # deliberately mistuned starting frequency
    fit = solve_linear(ts, spec, np.array([1.45]))
    out = refine(ts, spec, fit.beta.freqs)
    assert out.z <= out.z_initial
    assert out.iterations >= 1


def test_refine_recovers_exact_parameters_on_clean_data():
    rng = np.random.default_rng(4)
    t = np.sort(rng.random(80))
    t[0], t[-1] = 0.0, 1.0
    f_true = 1.7
    y = 0.6 * np.cos(2 * np.pi * f_true * t) - 0.8 * np.sin(2 * np.pi * f_true * t) + 2.0
    ts = TimeSeries(t, y)
    fit = solve_linear(ts, ModelSpec(1, 1, 0), np.array([1.68]))
    out = refine(ts, ModelSpec(1, 1, 0), fit.beta.freqs)
    assert out.converged
    assert out.beta.freqs[0] == pytest.approx(f_true, abs=1e-9)
    assert out.beta.linear == pytest.approx([0.6, -0.8, 2.0], abs=1e-8)
    assert out.z < 1e-9


def test_refine_stat_follows_weighting():
    ts = sine_series(seed=5)
    fit = solve_linear(ts, ModelSpec(1, 1, 0), np.array([1.4]))
    out = refine(ts, ModelSpec(1, 1, 0), fit.beta.freqs)
    assert out.chi2 is not None
    assert out.stat == out.chi2
    unw = TimeSeries(ts.t, ts.y)
    out_u = refine(unw, ModelSpec(1, 1, 0), fit.beta.freqs)
    assert out_u.chi2 is None
    assert out_u.stat == out_u.r_sum


def test_refine_residuals_are_explicit():
    ts = sine_series(seed=6)
    spec = ModelSpec(1, 1, 0)
    out = refine(ts, spec, solve_linear(ts, spec, np.array([1.4])).beta.freqs)
    stats = span_stats(ts)
    assert np.allclose(out.residuals,
                       ts.y - eval_model(ts.t, spec, out.beta, stats),
                       atol=1e-12)


# ---------------------------------------------------------------------------
# resampling determinism
# ---------------------------------------------------------------------------

def test_resample_rounds_are_prefix_stable():
    rng = np.random.default_rng(7)
    g = rng.normal(size=30)
    eps = rng.normal(size=30)
    a = _resample_rounds(g, eps, 4, seed=99)
    b = _resample_rounds(g, eps, 9, seed=99)
    assert np.array_equal(a, b[:4])


def test_resample_rounds_seed_sensitivity():
    g = np.zeros(10)
    eps = np.arange(10.0)
    assert not np.array_equal(_resample_rounds(g, eps, 3, 1),
                              _resample_rounds(g, eps, 3, 2))


def test_wrap_epoch_maps_to_nearest_representative():
    assert _wrap_epoch(2.3, 1.0, 0.25) == pytest.approx(0.3)
    assert _wrap_epoch(-0.7, 1.0, 0.25) == pytest.approx(0.3)
    assert _wrap_epoch(0.3, 1.0, 0.25) == pytest.approx(0.3)
    assert _wrap_epoch(None, 1.0, 0.25) is None


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def run_bootstrap(ts, spec, cfg, n_rounds, seed, workers=1, refine_rounds=True):
    fit = solve_linear(ts, spec, np.array([1.4]))
    refined = refine(ts, spec, fit.beta.freqs)
    grids = [np.linspace(1.3, 1.5, 21)]
    return bootstrap(ts, spec, cfg, refined, grids, n_rounds, seed,
                     refine_rounds=refine_rounds, workers=workers)


def test_bootstrap_shapes_and_spreads():
    ts = sine_series(seed=8)
    cfg = SearchConfig(0.8, 2.5)
    rep = run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=8, seed=5)
    assert rep.n_ok == 8
    assert rep.failed_rounds == 0
    assert rep.draws.shape == (8, 4)
    assert rep.param_names == ["B_1_1", "C_1_1", "f_1", "M_0"]
    assert rep.param_sigma.shape == (4,)
    assert (rep.param_sigma > 0).all()
    for key in ("P_1", "A_1", "t_max1_1", "t_min1_1", "M_0"):
        assert key in rep.summary_sigma
    # pure sine: no secondary extrema, so no spread entries for them
    assert "t_max2_1" not in rep.summary_sigma


def test_bootstrap_rounds_are_prefix_stable():
    ts = sine_series(seed=9)
    cfg = SearchConfig(0.8, 2.5)
    a = run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=4, seed=21)
    b = run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=8, seed=21)
    assert np.array_equal(a.draws, b.draws[:4])
    assert np.array_equal(a.z_draws, b.z_draws[:4])


def test_bootstrap_worker_invariance():
    ts = sine_series(seed=10)
    cfg = SearchConfig(0.8, 2.5)
    a = run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=6, seed=3, workers=1)
    b = run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=6, seed=3, workers=4)
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.z_draws, b.z_draws)
    assert a.flags == b.flags


def test_bootstrap_grid_only_rounds():
    ts = sine_series(seed=11)
    cfg = SearchConfig(0.8, 2.5)
    rep = run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=6, seed=4,
                        refine_rounds=False)
    # every frequency draw must sit on the candidate grid
    grid = np.linspace(1.3, 1.5, 21)
    for f in rep.draws[:, 2]:
        assert np.min(np.abs(grid - f)) == 0.0


def test_bootstrap_requires_two_rounds():
    ts = sine_series(seed=12)
    cfg = SearchConfig(0.8, 2.5)
    with pytest.raises(ConfigError):
        run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=1, seed=0)


# ---------------------------------------------------------------------------
# instability flags, each triggered in isolation
# ---------------------------------------------------------------------------

def fabricated_state(spec, freqs, linear, ts):
    stats = span_stats(ts)
    beta = BetaVector(np.asarray(freqs, dtype=float),
                      np.asarray(linear, dtype=float))
    resid = ts.y - eval_model(ts.t, spec, beta, stats)
    refined = RefinedModel(beta=beta, residuals=resid,
                           r_sum=float(resid @ resid), chi2=None,
                           z=1.0, z_initial=1.0, iterations=0, converged=True,
                           stop="grad")
    return stats, beta, refined


def draws_from(spec, stats, rows):
    draws = np.array([b.interleaved(spec) for b in rows])
    summaries = [summarize_signals(spec, b, stats) for b in rows]
    return draws, summaries


def test_clean_draws_raise_no_flags():
    ts = sine_series(seed=13, noise=0.02)
    spec = ModelSpec(2, 1, 0)
    stats, beta, refined = fabricated_state(
        spec, [2.0, 1.0], [1.0, 0.0, 0.8, 0.0, 0.5], ts)
    rows = [BetaVector([2.0 + d, 1.0 - d], [1.0, 0.0, 0.8, 0.0, 0.5])
            for d in (-0.01, 0.0, 0.01)]
    draws, summaries = draws_from(spec, stats, rows)
    flags = diagnose_stability(ts, spec, refined, summarize_signals(spec, beta, stats),
                               draws, summaries, grid_step=0.001,
                               f_min=0.5, f_max=3.0)
    assert flags == []


def test_intersecting_frequencies_on_crossed_round():
    ts = sine_series(seed=14)
    spec = ModelSpec(2, 1, 0)
    stats, beta, refined = fabricated_state(
        spec, [2.0, 1.0], [1.0, 0.0, 0.8, 0.0, 0.5], ts)
    rows = [BetaVector([2.0, 1.0], [1.0, 0.0, 0.8, 0.0, 0.5]),
            BetaVector([1.0, 2.0], [1.0, 0.0, 0.8, 0.0, 0.5])]  # crossed
    draws, summaries = draws_from(spec, stats, rows)
    flags = diagnose_stability(ts, spec, refined, summarize_signals(spec, beta, stats),
                               draws, summaries, grid_step=0.001,
                               f_min=0.5, f_max=3.0)
    assert FLAG_INTERSECTING in flags


def test_intersecting_frequencies_on_grid_step_proximity():
    ts = sine_series(seed=15)
    spec = ModelSpec(2, 1, 0)
    stats, beta, refined = fabricated_state(
        spec, [2.0, 1.9995], [1.0, 0.0, 0.8, 0.0, 0.5], ts)
    rows = [BetaVector([2.0, 1.9995], [1.0, 0.0, 0.8, 0.0, 0.5])] * 2
    draws, summaries = draws_from(spec, stats, rows)
    flags = diagnose_stability(ts, spec, refined, summarize_signals(spec, beta, stats),
                               draws, summaries, grid_step=0.01,
                               f_min=0.5, f_max=3.0)
    assert FLAG_INTERSECTING in flags


def test_dispersing_amplitudes_on_wide_spread():
    ts = sine_series(seed=16)
    spec = ModelSpec(1, 1, 0)
    stats, beta, refined = fabricated_state(spec, [1.4], [0.5, 0.0, 1.0], ts)
    rows = [BetaVector([1.4], [b, 0.0, 1.0]) for b in (0.01, 0.5, 3.0, 0.1)]
    draws, summaries = draws_from(spec, stats, rows)
    flags = diagnose_stability(ts, spec, refined, summarize_signals(spec, beta, stats),
                               draws, summaries, grid_step=0.001,
                               f_min=0.5, f_max=3.0)
    assert FLAG_DISPERSING in flags


def test_dispersing_amplitudes_on_cancelling_pair():
    # two huge components at nearly the same frequency, opposite phase:
    # individually enormous, their sum stays within the data range
    ts = sine_series(seed=17)
    spec = ModelSpec(2, 1, 0)
    big = 50.0
    stats, beta, refined = fabricated_state(
        spec, [1.40001, 1.4], [big, 0.0, -big, 0.0, 1.0], ts)
    rows = [BetaVector([1.40001, 1.4], [big, 0.0, -big, 0.0, 1.0])] * 3
    draws, summaries = draws_from(spec, stats, rows)
    flags = diagnose_stability(ts, spec, refined, summarize_signals(spec, beta, stats),
                               draws, summaries, grid_step=1e-9,
                               f_min=0.5, f_max=3.0)
    assert FLAG_DISPERSING in flags


def test_leaking_periods_on_escaped_round():
    ts = sine_series(seed=18)
    spec = ModelSpec(1, 1, 0)
    stats, beta, refined = fabricated_state(spec, [1.4], [1.0, 0.0, 1.0], ts)
    rows = [BetaVector([1.4], [1.0, 0.0, 1.0]),
            BetaVector([3.2], [1.0, 0.0, 1.0])]  # outside [0.5, 3.0]
    draws, summaries = draws_from(spec, stats, rows)
    flags = diagnose_stability(ts, spec, refined, summarize_signals(spec, beta, stats),
                               draws, summaries, grid_step=0.001,
                               f_min=0.5, f_max=3.0)
    assert flags == [FLAG_LEAKING]


def test_leaking_periods_on_point_estimate():
    ts = sine_series(seed=19)
    spec = ModelSpec(1, 1, 0)
    stats, beta, refined = fabricated_state(spec, [0.4], [1.0, 0.0, 1.0], ts)
    draws, summaries = draws_from(spec, stats, [BetaVector([1.4], [1.0, 0.0, 1.0])] * 2)
    flags = diagnose_stability(ts, spec, refined, summarize_signals(spec, beta, stats),
                               draws, summaries, grid_step=0.001,
                               f_min=0.5, f_max=3.0)
    assert FLAG_LEAKING in flags


# ---------------------------------------------------------------------------
# the stacked polish kernel
# ---------------------------------------------------------------------------

refine_mod = importlib.import_module("dcmethod.refine")
CONVERGED_STOPS = {"grad", "z-tol"}


def reference_refine(ts, spec, beta0, stats, max_iter):
    """One row at a time, as a plain loop: the variable-projection
    Levenberg-Marquardt iteration the stacked kernel must reproduce bit
    for bit.  Returns (params, weighted residuals, weighted sum of
    squares, z0, accepted steps, stop)."""
    sigma = ts.sigma
    yw = ts.y if sigma is None else ts.y / sigma
    tau = ts.t - stats.t_mid

    def fit_at(f):
        fit = _fit(ts.t, yw[None, :], sigma, spec, f[None, :], stats)
        return fit, fit.x[0], fit.rw[0], float(fit.wsum[0])

    def factors(fit, rw, s_sum):
        jt = _jacobian(fit, spec, tau)[0]
        grad = jt @ rw
        col2 = np.array([c @ c for c in jt])
        flat = np.sqrt(grad @ grad) <= 1e-9 * np.sqrt(col2.sum() * s_sum)
        scale = np.sqrt(col2)
        scale[scale == 0.0] = 1.0
        q, s, pt = np.linalg.svd(jt / scale[:, None], full_matrices=False)
        return flat, (scale, q, s, pt @ rw)

    def params(f, x):
        return BetaVector(f, x).interleaved(spec)

    f = beta0.freqs.copy()
    fit, x, rw, s_sum = fit_at(f)
    z0 = z = float(np.sqrt(s_sum / ts.n))
    if max_iter <= 0:
        return params(f, x), rw, s_sum, z0, 0, "max-iter"
    flat, (scale, q, s, ptr) = factors(fit, rw, s_sum)
    if flat:
        return params(f, x), rw, s_sum, z0, 0, "grad"
    lam = 1e-3
    accepted = 0
    while True:
        delta = -(q @ (s / (s * s + lam) * ptr)) / scale
        trial = f + delta
        finite = bool(np.isfinite(trial).all())
        fit_t, x_t, rw_t, s_t = fit_at(trial if finite else f)
        z_t = float(np.sqrt(s_t / ts.n))
        small = finite and np.max(np.abs(delta), initial=0.0) * stats.delta_t <= 1e-10
        settled = small and not (z - z_t > 1e-12 * z)
        if finite and np.isfinite(s_t) and s_t < s_sum:
            f, x, rw, s_sum, z = trial, x_t, rw_t, s_t, z_t
            flat, (scale, q, s, ptr) = factors(fit_t, rw, s_sum)
            lam = max(lam * 0.1, 1e-15)
            accepted += 1
            if flat:
                return params(f, x), rw, s_sum, z0, accepted, "grad"
        else:
            lam *= 10.0
        if settled:
            stop = "z-tol"
        elif lam > 1e12:
            stop = "no-descent"
        elif accepted >= max_iter:
            stop = "max-iter"
        else:
            continue
        return params(f, x), rw, s_sum, z0, accepted, stop


@st.composite
def polish_cases(draw):
    """R series on shared times, each with its own noise draw and a
    start from the linear fit at mistuned frequencies."""
    k1 = draw(st.integers(0, 2))
    spec = ModelSpec(k1, draw(st.integers(1, 2)),
                     draw(st.integers(0 if k1 == 0 else -1, 2)))
    n = draw(st.integers(max(12, 2 * spec.eta), 70))
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = 10.0 ** draw(st.integers(-9, 0))
    t = np.sort(rng.random(n)) * 3.0
    sigma = noise * (0.5 + rng.random(n))
    stats = span_stats(TimeSeries(t, np.zeros(n)))
    freqs = np.sort(rng.uniform(0.5, 4.0, k1))[::-1] + np.arange(k1)[::-1]
    truth = BetaVector(freqs, rng.normal(size=spec.n_linear))
    g = eval_model(t, spec, truth, stats)
    series = [TimeSeries(t, g + rng.normal(0, 1, n) * sigma, sigma)
              for _ in range(rows)]
    if draw(st.sampled_from(["unweighted", "chi-square"])) == "unweighted":
        series = [TimeSeries(ts.t, ts.y) for ts in series]
    starts = [solve_linear(ts, spec, freqs + rng.normal(0, 0.01, k1)).beta
              for ts in series]
    max_iter = draw(st.sampled_from([0, 1, 2, 5, 200]))
    return spec, series, starts, stats, max_iter


def polish(series, starts, spec, stats, max_iter, rows=None):
    ts = series[0]
    y = np.array([s.y for s in series])
    freqs = np.array([b.freqs for b in starts])
    if rows is not None:
        y, freqs = y[rows], freqs[rows]
    return refine_mod._polish(ts.t, y, ts.sigma, spec, freqs, stats, max_iter)


@settings(max_examples=40, deadline=None)
@given(polish_cases())
def test_stacked_polish_equals_the_reference_loop_per_row(case):
    spec, series, starts, stats, max_iter = case
    out = polish(series, starts, spec, stats, max_iter)
    for r, (ts, beta0) in enumerate(zip(series, starts)):
        p, rw, s_sum, z0, steps, stop = reference_refine(
            ts, spec, beta0, stats, max_iter)
        assert np.array_equal(out.params[r], p)
        assert np.array_equal(out.rw[r], rw)
        assert out.wsum[r] == s_sum
        assert out.z0[r] == z0
        assert out.steps[r] == steps
        assert refine_mod._STOPS[out.stop[r]] == stop
        single = refine(ts, spec, beta0.freqs, max_iter=max_iter)
        assert single.stop == stop
        assert single.iterations == steps
        assert single.converged == (stop in CONVERGED_STOPS)
        assert np.array_equal(single.beta.interleaved(spec), p)


@settings(max_examples=30, deadline=None)
@given(polish_cases(), st.data())
def test_polishing_rows_together_equals_any_split(case, data):
    spec, series, starts, stats, max_iter = case
    whole = polish(series, starts, spec, stats, max_iter)
    order = data.draw(st.permutations(range(len(series))))
    cut = data.draw(st.integers(0, len(series)))
    for part in (list(order[:cut]), list(order[cut:])):
        if not part:
            continue
        sub = polish(series, starts, spec, stats, max_iter, rows=part)
        assert np.array_equal(sub.params, whole.params[part])
        assert np.array_equal(sub.rw, whole.rw[part])
        assert np.array_equal(sub.wsum, whole.wsum[part])
        assert np.array_equal(sub.steps, whole.steps[part])
        assert np.array_equal(sub.stop, whole.stop[part])


@settings(max_examples=40, deadline=None)
@given(polish_cases())
def test_block_linear_fit_equals_solve_linear_per_round(case):
    spec, series, _, stats, _ = case
    rng = np.random.default_rng(len(series))
    tuples = np.sort(rng.uniform(0.5, 4.0, (len(series), spec.k1)), axis=1)[:, ::-1]
    ts = series[0]
    y = np.array([s.y for s in series])
    out = refine_mod._polish(ts.t, y, ts.sigma, spec, tuples, stats, 0)
    params, wsum = out.params, out.wsum
    for r, s in enumerate(series):
        fit = solve_linear(s, spec, tuples[r])
        assert np.array_equal(params[r], fit.beta.interleaved(spec))
        assert np.sqrt(wsum[r] / ts.n) == fit.z


# The refined z the full-parameter Gauss-Newton polish reached on this
# series when it stopped on its 200-step cap, without converging.
GN_CAPPED_Z = 0.8798311502769377


def test_harmonic_polish_converges_below_the_old_capped_z():
    # model 7 g(2,2,2) at SN = 1e6: the full-parameter polish crawled
    # along the (frequency, amplitude) valley into its step cap
    sim = SimulationSpec(7, 120, 1e6, 3)
    ts = simulate(sim)
    spec = MODELS[7].spec
    stats = span_stats(ts)
    fit = solve_linear(ts, spec, model_truth(sim).beta.freqs * (1 + 1e-4))
    p, rw, s_sum, z0, steps, stop = reference_refine(
        ts, spec, fit.beta, stats, 200)
    out = refine(ts, spec, fit.beta.freqs)
    assert out.stop in CONVERGED_STOPS
    assert out.converged
    assert out.z <= GN_CAPPED_Z
    assert (out.iterations, out.stop) == (steps, stop)
    assert np.array_equal(out.beta.interleaved(spec), p)
    assert np.array_equal(out.residuals, rw * ts.sigma)
    assert out.z_initial == z0 == fit.z


def test_harmonics_bench_shape_converges_to_the_true_periods():
    # model 7 g(2,2,2), n = 300, SN = 1e6, seed 42, grids of the
    # harmonics benchmark workload; period tolerances as derived there
    sim = SimulationSpec(7, 300, 1e6, 42)
    ts = simulate(sim)
    cfg = SearchConfig.from_periods(*MODELS[7].period_range, n_long=80, n_short=50)
    a = analyze(ts, MODELS[7].spec, cfg, AnalysisOptions(n_boot=0))
    assert a.refined.stop in CONVERGED_STOPS
    assert a.refined.z <= a.refined.z_initial
    got = sorted(s.period for s in a.summary.signals)
    want = sorted(s.period for s in model_truth(sim).summary.signals)
    for p, p_true, tol in zip(got, want, (0.005, 0.03)):
        assert abs(p - p_true) <= tol


@st.composite
def time_frames(draw):
    """A time unit (t -> scale t) and an origin up to 3e6 spans away."""
    scale = 10.0 ** draw(st.integers(-3, 3))
    offset = draw(st.sampled_from([0.0, 1e3, 2.45e6, -5e4]) | st.floats(-3e6, 3e6))
    return scale, offset


@functools.lru_cache(maxsize=None)
def model1_start():
    """Model 1, n = 100, SN = 100, seed 42 and its short-stage best."""
    ts = simulate(SimulationSpec(1, 100, 100, seed=42))
    spec = ModelSpec(1, 1, 0)
    cfg = SearchConfig.from_periods(0.63, 5.70)
    long = long_search(ts, spec, cfg)
    best = short_search(ts, spec, cfg, long.best).best
    return ts, spec, best, refine(ts, spec, solve_linear(ts, spec, best).beta.freqs)


@settings(max_examples=40, deadline=None)
@given(time_frames())
def test_polish_ignores_the_time_origin_and_unit(frame):
    scale, offset = frame
    ts, spec, best, ref = model1_start()
    moved = TimeSeries(scale * (ts.t + offset), ts.y, ts.sigma)
    start = solve_linear(moved, spec, best / scale).beta
    out = refine(moved, spec, start.freqs)
    assert out.stop in CONVERGED_STOPS
    assert out.beta.freqs[0] * scale == pytest.approx(ref.beta.freqs[0], rel=1e-6)


# ---------------------------------------------------------------------------
# termination reasons
# ---------------------------------------------------------------------------

def clean_sine(f_true=1.7):
    rng = np.random.default_rng(4)
    t = np.sort(rng.random(80))
    t[0], t[-1] = 0.0, 1.0
    y = 0.6 * np.cos(2 * np.pi * f_true * t) - 0.8 * np.sin(2 * np.pi * f_true * t) + 2.0
    return TimeSeries(t, y)


def test_clean_data_stops_on_a_converged_reason():
    ts = clean_sine()
    fit = solve_linear(ts, ModelSpec(1, 1, 0), np.array([1.68]))
    out = refine(ts, ModelSpec(1, 1, 0), fit.beta.freqs)
    assert out.stop in CONVERGED_STOPS
    assert out.converged


def test_one_step_cap_stops_on_max_iter():
    ts = clean_sine()
    fit = solve_linear(ts, ModelSpec(1, 1, 0), np.array([1.68]))
    out = refine(ts, ModelSpec(1, 1, 0), fit.beta.freqs, max_iter=1)
    assert out.stop == "max-iter"
    assert out.iterations == 1
    assert not out.converged


@pytest.mark.parametrize("start", [[1.0, 2.0], []])
def test_start_of_the_wrong_length_is_a_config_error(start):
    with pytest.raises(ConfigError, match="expected 1 frequencies"):
        refine(clean_sine(), ModelSpec(1, 1, 0), start)


def test_zero_step_cap_returns_the_start():
    ts = sine_series(seed=3)
    spec = ModelSpec(1, 1, 0)
    fit = solve_linear(ts, spec, np.array([1.45]))
    out = refine(ts, spec, fit.beta.freqs, max_iter=0)
    assert out.stop == "max-iter"
    assert out.iterations == 0
    assert np.array_equal(out.beta.interleaved(spec), fit.beta.interleaved(spec))
    assert out.z == out.z_initial


def test_z_tol_on_the_last_allowed_step_counts_as_converged():
    ts = sine_series(seed=5)
    spec = ModelSpec(1, 1, 0)
    fit = solve_linear(ts, spec, np.array([1.45]))
    free = refine(ts, spec, fit.beta.freqs)
    assert free.stop == "z-tol"
    capped = refine(ts, spec, fit.beta.freqs, max_iter=free.iterations)
    assert (capped.stop, capped.converged) == ("z-tol", True)
    assert capped.iterations == free.iterations
    shorter = refine(ts, spec, fit.beta.freqs, max_iter=free.iterations - 1)
    assert (shorter.stop, shorter.converged) == ("max-iter", False)


@settings(max_examples=25, deadline=None)
@given(polish_cases())
def test_converged_exactly_when_stopped_on_grad_or_z_tol(case):
    spec, series, starts, stats, max_iter = case
    out = refine(series[0], spec, starts[0].freqs, max_iter=max_iter)
    assert out.stop in refine_mod._STOPS
    assert out.converged == (out.stop in CONVERGED_STOPS)
    assert out.z <= out.z_initial


# ---------------------------------------------------------------------------
# bootstrap blocks
# ---------------------------------------------------------------------------

def wide_bootstrap(n_rounds, workers=1, spec=ModelSpec(1, 1, 0), seed=17):
    """A series long enough that the default block size splits the
    rounds: n = 1000, eta = 4 gives 25 rounds per block."""
    ts = sine_series(n=1000, seed=20)
    beta0 = solve_linear(ts, spec, np.array([1.4])[:spec.k1]).beta
    refined = refine(ts, spec, beta0.freqs)
    grids = [np.linspace(1.3, 1.5, 21)][:spec.k1]
    return bootstrap(ts, spec, SearchConfig(0.8, 2.5), refined, grids,
                     n_rounds, seed, workers=workers)


def test_bootstrap_blocks_are_prefix_stable_and_worker_invariant():
    per_block = refine_mod._BLOCK_ELEMENTS // (1000 * 4)
    assert 30 > per_block
    a = wide_bootstrap(30)
    b = wide_bootstrap(2 * per_block + 7, workers=3)
    c = wide_bootstrap(2 * per_block + 7, workers=1)
    assert np.array_equal(a.draws, b.draws[:30])
    assert np.array_equal(a.z_draws, b.z_draws[:30])
    assert np.array_equal(b.draws, c.draws)
    assert np.array_equal(b.z_draws, c.z_draws)
    assert b.summary_sigma == c.summary_sigma
    assert b.flags == c.flags


@pytest.mark.parametrize("rounds_per_block", [1, 2, 3, 5])
@pytest.mark.parametrize("workers", [1, 3])
def test_bootstrap_draws_do_not_depend_on_block_size(monkeypatch, rounds_per_block,
                                                     workers):
    ts = sine_series(seed=9)
    cfg = SearchConfig(0.8, 2.5)
    whole = run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=8, seed=21)
    monkeypatch.setattr(refine_mod, "_BLOCK_ELEMENTS", rounds_per_block * ts.n * 4)
    split = run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=8, seed=21,
                          workers=workers)
    assert np.array_equal(whole.draws, split.draws)
    assert np.array_equal(whole.z_draws, split.z_draws)
    assert whole.summary_sigma == split.summary_sigma


def test_pure_trend_bootstrap_spans_blocks():
    spec = ModelSpec(0, 1, 1)
    a = wide_bootstrap(60, spec=spec)
    b = wide_bootstrap(60, workers=3, spec=spec)
    assert a.n_ok == 60
    assert a.draws.shape == (60, 2)
    assert np.array_equal(a.draws, b.draws)
    assert set(a.summary_sigma) == {"M_0", "M_1"}


@pytest.mark.parametrize("bad_round", [0, 4, 7])
def test_a_failing_round_is_dropped_alone(monkeypatch, bad_round):
    ts = sine_series(seed=9)
    cfg = SearchConfig(0.8, 2.5)
    monkeypatch.setattr(refine_mod, "_BLOCK_ELEMENTS", 3 * ts.n * 4)
    clean = run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=8, seed=21)
    real_scan = refine_mod.scan_rounds

    def scan_with_a_broken_round(*args, **kwargs):
        z_min, best = real_scan(*args, **kwargs)
        best = best.copy()
        best[bad_round] = np.nan  # its design matrix is NaN: the SVD raises
        return z_min, best

    monkeypatch.setattr(refine_mod, "scan_rounds", scan_with_a_broken_round)
    forced = run_bootstrap(ts, ModelSpec(1, 1, 0), cfg, n_rounds=8, seed=21)
    keep = np.arange(8) != bad_round
    assert forced.failed_rounds == 1
    assert forced.n_ok == 7
    assert np.array_equal(forced.draws, clean.draws[keep])
    assert np.array_equal(forced.z_draws, clean.z_draws[keep])
