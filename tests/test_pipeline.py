"""Stage chaining contracts of the one-shot analysis entry point."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcmethod import (
    MODELS,
    AnalysisOptions,
    ConfigError,
    ModelSpec,
    SearchConfig,
    SimulationSpec,
    TimeSeries,
    simulate,
)
from dcmethod.pipeline import analyze
from dcmethod.linfit import solve_linear
from dcmethod.model import layout


def series(seed=0, n=60, noise=0.05):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.random(n)) * 2.0
    t[0], t[-1] = 0.0, 2.0
    y = 0.9 * np.cos(2 * np.pi * 1.8 * (t - 0.4)) + 1.5 + rng.normal(0, noise, n)
    return TimeSeries(t, y, np.full(n, noise))


CFG = SearchConfig(1.0, 3.0, n_long=50, n_short=40)


def test_stages_are_coherent():
    ts = series()
    a = analyze(ts, ModelSpec(1, 1, 0), CFG, AnalysisOptions(n_boot=4, seed=2))
    assert a.n == ts.n
    assert a.weighting == "chi-square"
    # each stage can only improve the misfit
    assert a.short.z_min <= a.long.z_min
    assert a.refined.z <= a.short.z_min + 1e-15
    assert a.z == a.refined.z
    assert a.stat == a.refined.chi2
    assert a.boot.n_rounds == 4
    assert a.flags == list(a.boot.flags)
    assert len(a.summary.signals) == 1
    assert a.summary.signals[0].period == pytest.approx(1 / 1.8, abs=0.02)


def test_short_stage_windows_the_long_winner():
    ts = series(seed=1)
    a = analyze(ts, ModelSpec(1, 1, 0), CFG, AnalysisOptions(n_boot=0))
    half = CFG.half_width_frac * (CFG.f_max - CFG.f_min) / 2
    assert abs(a.short.best[0] - a.long.best[0]) <= half + 1e-12


def test_no_bootstrap_means_no_flags():
    ts = series(seed=2)
    a = analyze(ts, ModelSpec(1, 1, 0), CFG, AnalysisOptions(n_boot=0))
    assert a.boot is None
    assert a.flags == []


def test_pure_trend_skips_the_scans():
    ts = series(seed=3)
    a = analyze(ts, ModelSpec(0, 1, 1), None, AnalysisOptions(n_boot=0))
    assert a.long is None and a.short is None
    assert a.refined.iterations == 0
    assert a.refined.converged
    assert a.refined.stop == "grad"
    assert a.refined.z_initial == a.refined.z
    direct = solve_linear(ts, ModelSpec(0, 1, 1), np.empty(0))
    assert a.refined.z == direct.z
    assert np.array_equal(a.refined.beta.linear, direct.beta.linear)
    assert np.array_equal(a.refined.residuals, direct.residuals)


@pytest.mark.parametrize("workers", [0, -3, None, True])
def test_pure_trend_without_a_bootstrap_rejects_a_bad_worker_count(workers):
    # this shape reaches neither a scan nor the bootstrap's pool, so
    # analyze itself must check the count
    ts = series(seed=3)
    with pytest.raises(ConfigError, match="workers must be"):
        analyze(ts, ModelSpec(0, 1, 1), None, AnalysisOptions(n_boot=0), workers=workers)


def test_pure_trend_bootstrap_works_without_a_range():
    ts = series(seed=4)
    a = analyze(ts, ModelSpec(0, 1, 1), None, AnalysisOptions(n_boot=6, seed=1))
    assert a.boot.n_ok == 6
    assert a.boot.grid_step == 0.0
    assert set(a.boot.param_names) == {"M_0", "M_1"}


def test_signal_shape_requires_a_range():
    ts = series(seed=5)
    with pytest.raises(ConfigError):
        analyze(ts, ModelSpec(1, 1, 0), None, AnalysisOptions(n_boot=0))


def test_weighting_override_is_honoured():
    ts = series(seed=6)
    plain = analyze(TimeSeries(ts.t, ts.y), ModelSpec(1, 1, 0), CFG,
                    AnalysisOptions(n_boot=0))
    assert plain.weighting == "unweighted"
    assert plain.refined.chi2 is None
    assert plain.stat == plain.refined.r_sum


def test_negative_boot_count_is_rejected():
    with pytest.raises(ConfigError):
        AnalysisOptions(n_boot=-1)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, 3, 7]), st.integers(80, 120), st.integers(0, 2**16),
       st.integers(-6, 6))
def test_equal_sigmas_match_the_unweighted_fit(model, n, seed, k):
    # every sigma equal to c = 2^k divides each row exactly, so the
    # chi-square fit is the unweighted fit with z scaled by 1/c, bit for
    # bit: the same scan winners, slices and polished frequencies
    ts = simulate(SimulationSpec(model, n, 50, seed=seed))
    spec = MODELS[model].spec
    cfg = SearchConfig.from_periods(*MODELS[model].period_range, n_long=30, n_short=20)
    c = 2.0 ** k
    plain = analyze(TimeSeries(ts.t, ts.y), spec, cfg, AnalysisOptions(n_boot=0))
    equal = analyze(TimeSeries(ts.t, ts.y, np.full(n, c)), spec, cfg,
                    AnalysisOptions(n_boot=0))
    assert (plain.weighting, equal.weighting) == ("unweighted", "chi-square")
    for a, b in ((plain.long, equal.long), (plain.short, equal.short)):
        assert np.array_equal(a.best, b.best)
        assert a.z_min == b.z_min * c
        for sa, sb in zip(a.slices, b.slices):
            assert np.array_equal(sa.z, sb.z * c)
    assert np.array_equal(plain.refined.beta.freqs, equal.refined.beta.freqs)
    assert plain.refined.z == equal.refined.z * c


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 3, 5, 7]), st.booleans(), st.integers(60, 120),
       st.integers(0, 2**16), st.integers(-8, 8), st.sampled_from([0, *range(2, 9)]))
def test_y_times_c_scales_z_and_the_amplitudes_by_c(model, weighted, n, seed, k,
                                                     n_boot):
    # y times c = 2^k, sigma kept, scales every z, linear coefficient,
    # amplitude and their spreads by exactly c, and leaves every
    # frequency, period, epoch, stop reason and flag as it was
    ts = simulate(SimulationSpec(model, n, 50, seed=seed))
    sigma = ts.sigma if weighted else None
    c = 2.0 ** k
    ts, scaled = TimeSeries(ts.t, ts.y, sigma), TimeSeries(ts.t, ts.y * c, sigma)
    spec = MODELS[model].spec
    cfg = SearchConfig.from_periods(*MODELS[model].period_range, n_long=30, n_short=20)
    opts = AnalysisOptions(n_boot=n_boot, seed=seed)
    a, b = analyze(ts, spec, cfg, opts), analyze(scaled, spec, cfg, opts)
    for pa, pb in ((a.long, b.long), (a.short, b.short)):
        assert np.array_equal(pa.best, pb.best)
        assert pb.z_min == pa.z_min * c
        for sa, sb in zip(pa.slices, pb.slices):
            assert np.array_equal(sb.z, sa.z * c)
    ra, rb = a.refined, b.refined
    assert rb.z <= b.short.z_min
    assert np.array_equal(ra.beta.freqs, rb.beta.freqs)
    assert np.array_equal(rb.beta.linear, ra.beta.linear * c)
    assert (rb.z, rb.z_initial) == (ra.z * c, ra.z_initial * c)
    assert (ra.stop, ra.iterations) == (rb.stop, rb.iterations)
    for sa, sb in zip(a.summary.signals, b.summary.signals):
        assert sb.amplitude == sa.amplitude * c
        assert ((sa.period, sa.t_max1, sa.t_min1, sa.t_max2, sa.t_min2)
                == (sb.period, sb.t_max1, sb.t_min1, sb.t_max2, sb.t_min2))
    if n_boot:
        freq, linear = layout(spec)
        assert np.array_equal(a.boot.draws[:, freq], b.boot.draws[:, freq])
        assert np.array_equal(b.boot.draws[:, linear], a.boot.draws[:, linear] * c)
        assert np.array_equal(b.boot.z_draws, a.boot.z_draws * c)
        for key, value in a.boot.summary_sigma.items():
            unit = c if key[0] in "AM" else 1.0
            assert np.array_equal(b.boot.summary_sigma[key], value * unit,
                                  equal_nan=True), key
        assert a.boot.flags == b.boot.flags
