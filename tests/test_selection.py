"""Fisher comparisons, model ladder, no-signal and prediction checks."""

import numpy as np
import pytest

from dcmethod import (
    AnalysisOptions,
    ConfigError,
    ModelSpec,
    SearchConfig,
    TimeSeries,
)
from dcmethod.pipeline import analyze
from dcmethod.selection import (
    GAMMA_F,
    QF_FLOOR,
    ModelScore,
    fisher_test,
    model_ladder,
    no_signal_test,
    predicted_mean,
    prediction_test,
    score_of,
)
from dcmethod.timeseries import span_stats

# ---------------------------------------------------------------------------
# frozen regression grid: an eight-member nested family fitted to one
# n=100 series (chi-square statistics and the expected F / QF for every
# testable pair, recorded during development and kept as a regression
# anchor)
# ---------------------------------------------------------------------------

N_REF = 100

SCORES = {
    1: ModelScore("g(1,1,-1)", 3, 738.0),
    2: ModelScore("g(1,1,0)", 4, 84.7422),
    3: ModelScore("g(1,1,1)", 5, 83.8104),
    4: ModelScore("g(1,1,2)", 6, 83.7686),
    5: ModelScore("g(2,1,-1)", 6, 83.8123),
    6: ModelScore("g(2,1,0)", 7, 83.7716),
    7: ModelScore("g(2,1,1)", 8, 83.7176),
    8: ModelScore("g(2,1,2)", 9, 81.2721),
}

F_GRID = [
    (2, 3, 1.0451, 0.309),
    (2, 4, 0.5404, 0.584),
    (2, 5, 0.5159, 0.599),
    (2, 6, 0.3553, 0.785),
    (2, 7, 0.2784, 0.891),
    (2, 8, 0.7686, 0.575),
    (3, 4, 0.0464, 0.830),
    (3, 5, -0.0021, 1.0),
    (3, 6, 0.0213, 0.979),
    (3, 7, 0.0336, 0.992),
    (3, 8, 0.7027, 0.592),
    (4, 6, -0.0033, 1.0),
    (4, 7, 0.0277, 0.973),
    (4, 8, 0.9215, 0.434),
    (5, 6, 0.0447, 0.833),
    (5, 7, 0.0515, 0.950),
    (5, 8, 0.9377, 0.426),
    (6, 7, 0.0587, 0.809),
    (6, 8, 1.3840, 0.256),
    (7, 8, 2.7081, 0.103),
]


@pytest.mark.parametrize("i,j,f_ref,qf_ref", F_GRID,
                         ids=[f"{SCORES[i].label}-vs-{SCORES[j].label}"
                              for i, j, *_ in F_GRID])
def test_fisher_regression_grid(i, j, f_ref, qf_ref):
    cmp = fisher_test(SCORES[i], SCORES[j], N_REF)
    assert cmp.f_value == pytest.approx(f_ref, abs=5e-5)
    if f_ref <= 0.0:
        assert cmp.q_f == 1.0
        assert cmp.verdict == "retain-H0"
    else:
        assert cmp.q_f == pytest.approx(qf_ref, abs=1.5e-3)
    assert cmp.nu1 == SCORES[j].eta - SCORES[i].eta
    assert cmp.nu2 == N_REF - SCORES[j].eta


def test_fisher_overwhelming_rejection_hits_floor():
    cmp = fisher_test(SCORES[1], SCORES[2], N_REF)
    # the misfit drop is enormous, QF underflows to the floor
    assert cmp.f_value == pytest.approx(732.33, abs=1.0)
    assert cmp.q_f == QF_FLOOR
    assert cmp.verdict == "reject-H0"
    assert cmp.preferred == "g(1,1,0)"


def test_fisher_equal_eta_compares_statistics():
    cmp = fisher_test(SCORES[4], SCORES[5], N_REF)
    assert cmp.verdict == "not-applicable"
    assert cmp.f_value is None and cmp.q_f is None
    assert cmp.preferred == "g(1,1,2)"  # the lower statistic


# trend-only alternatives against the same reference signal model
TREND_GRID = [
    # (eta, stat, f_ref, qf_ref or None for the floor)
    (1, 169260.0, 63218.0, None),
    (2, 97076.0, 54366.0, None),
    (3, 1820.0, 1945.0, None),
    (5, 85.0787, -0.3718, 1.0),
    (6, 84.1265, 0.3403, 0.712),
    (7, 83.7794, 0.3524, 0.787),
    (8, 81.3819, 0.9394, 0.445),
]


@pytest.mark.parametrize("eta,stat,f_ref,qf_ref", TREND_GRID,
                         ids=[f"poly-eta{e}" for e, *_ in TREND_GRID])
def test_fisher_trend_regression_grid(eta, stat, f_ref, qf_ref):
    poly = ModelScore(f"g(0,1,{eta - 1})", eta, stat)
    signal = SCORES[2]
    if eta <= signal.eta:
        cmp = fisher_test(poly, signal, N_REF)
    else:
        cmp = fisher_test(signal, poly, N_REF)
    tol = 1.0 if abs(f_ref) > 10 else 5e-4
    assert cmp.f_value == pytest.approx(f_ref, abs=tol)
    if qf_ref is None:
        assert cmp.q_f <= 1e-12
    elif f_ref <= 0.0:
        assert cmp.q_f == 1.0
    else:
        assert cmp.q_f == pytest.approx(qf_ref, abs=1.5e-3)


def test_fisher_trend_equal_eta_falls_back_to_statistics():
    poly = ModelScore("g(0,1,3)", 4, 469.0)
    cmp = fisher_test(poly, SCORES[2], N_REF)
    assert cmp.verdict == "not-applicable"
    assert cmp.preferred == SCORES[2].label


# ---------------------------------------------------------------------------
# fisher edge cases
# ---------------------------------------------------------------------------

def test_fisher_zero_complex_stat_gives_floor():
    cmp = fisher_test(ModelScore("a", 2, 5.0), ModelScore("b", 3, 0.0), 20)
    assert np.isinf(cmp.f_value)
    assert cmp.q_f == QF_FLOOR
    assert cmp.verdict == "reject-H0"


def test_fisher_equal_stats_retain():
    cmp = fisher_test(ModelScore("a", 2, 5.0), ModelScore("b", 3, 5.0), 20)
    assert cmp.f_value == 0.0
    assert cmp.q_f == 1.0
    assert cmp.verdict == "retain-H0"


def test_fisher_rejects_inverted_nesting():
    with pytest.raises(ConfigError):
        fisher_test(ModelScore("a", 5, 1.0), ModelScore("b", 3, 1.0), 20)


def test_fisher_rejects_too_few_points():
    with pytest.raises(ConfigError):
        fisher_test(ModelScore("a", 2, 1.0), ModelScore("b", 4, 1.0), 5)


def test_fisher_gamma_controls_verdict():
    # QF around 0.309: rejected only under an absurdly lax gamma
    strict = fisher_test(SCORES[2], SCORES[3], N_REF)
    lax = fisher_test(SCORES[2], SCORES[3], N_REF, gamma=0.5)
    assert strict.verdict == "retain-H0"
    assert lax.verdict == "reject-H0"
    assert lax.preferred == SCORES[3].label


# ---------------------------------------------------------------------------
# model ladder on synthetic data
# ---------------------------------------------------------------------------

def signal_series(seed=30, n=40):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.random(n))
    t[0], t[-1] = 0.0, 1.0
    y = np.cos(2 * np.pi * 2.2 * (t - 0.3)) + 5.0 + rng.normal(0, 0.02, n)
    return TimeSeries(t, y, np.full(n, 0.02))


LADDER_CFG = SearchConfig(1.5, 3.0, n_long=40, n_short=30)
FAST = AnalysisOptions(n_boot=0)


def test_ladder_picks_the_simplest_adequate_model():
    ts = signal_series()
    specs = [ModelSpec(1, 1, -1), ModelSpec(1, 1, 0), ModelSpec(1, 1, 1)]
    rep = model_ladder(ts, specs, LADDER_CFG, FAST)
    assert rep.best == ["g(1,1,0)"]
    assert not rep.ambiguous
    assert len(rep.comparisons) == 3
    # the constant-free shape cannot absorb the offset of 5
    first = rep.comparisons[0]
    assert first.simple == "g(1,1,-1)" and first.verdict == "reject-H0"


def test_ladder_single_spec_is_vacuously_best():
    ts = signal_series()
    rep = model_ladder(ts, [ModelSpec(1, 1, 0)], LADDER_CFG, FAST)
    assert rep.best == ["g(1,1,0)"]
    assert not rep.ambiguous
    assert rep.comparisons == []


def test_ladder_twin_specs_are_ambiguous():
    # two shapes with eta = 6 each: no F test between them, neither rejected
    ts = signal_series()
    rep = model_ladder(ts, [ModelSpec(2, 1, -1), ModelSpec(1, 1, 2)],
                       LADDER_CFG, FAST)
    assert len(rep.best) == 2
    assert rep.ambiguous
    assert rep.comparisons[0].verdict == "not-applicable"


def test_ladder_requires_a_spec():
    with pytest.raises(ConfigError):
        model_ladder(signal_series(), [], LADDER_CFG, FAST)


def test_ladder_rejects_a_repeated_shape():
    specs = [ModelSpec(1, 1, 0), ModelSpec(1, 1, 1), ModelSpec(1, 1, 0)]
    with pytest.raises(ConfigError, match=r"duplicate model shape g\(1,1,0\)"):
        model_ladder(signal_series(), specs, LADDER_CFG, FAST)


# ---------------------------------------------------------------------------
# no-signal test
# ---------------------------------------------------------------------------

def test_no_signal_on_real_signal_is_decisive():
    ts = signal_series()
    analysis = analyze(ts, ModelSpec(1, 1, 0), LADDER_CFG, FAST)
    rep = no_signal_test(ts, analysis, 2)
    assert rep.signal_preferred
    assert rep.first_signal_qf < GAMMA_F
    assert [p.label for p in rep.polynomials] == \
        ["g(0,1,0)", "g(0,1,1)", "g(0,1,2)"]


def test_no_signal_on_pure_trend_retains_the_trend():
    rng = np.random.default_rng(31)
    n = 40
    t = np.sort(rng.random(n))
    t[0], t[-1] = 0.0, 1.0
    scaled = 2 * (t - (t[0] + t[-1]) / 2) / (t[-1] - t[0])
    y = 2.0 + 0.5 * scaled + rng.normal(0, 0.05, n)
    ts = TimeSeries(t, y, np.full(n, 0.05))
    analysis = analyze(ts, ModelSpec(1, 1, 0), LADDER_CFG, FAST)
    rep = no_signal_test(ts, analysis, 3)
    assert not rep.signal_preferred
    assert rep.first_signal_qf > GAMMA_F
    # eta ties against the signal shape fall back to the statistic
    assert rep.comparisons[3].verdict == "not-applicable"


def test_no_signal_accepts_a_bare_score():
    ts = signal_series()
    analysis = analyze(ts, ModelSpec(1, 1, 0), LADDER_CFG, FAST)
    rep = no_signal_test(ts, score_of(analysis), 1)
    assert rep.signal.label == "g(1,1,0)"
    assert len(rep.comparisons) == 2


def test_no_signal_rejects_negative_order():
    ts = signal_series()
    analysis = analyze(ts, ModelSpec(1, 1, 0), LADDER_CFG, FAST)
    with pytest.raises(ConfigError):
        no_signal_test(ts, analysis, -1)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def clean_cosine_series(n=50, seed=40):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.random(n) * 1.4)
    t[0], t[-1] = 0.0, 1.4
    y = np.cos(2 * np.pi * 2.0 * (t - 0.1)) + 3.0
    return TimeSeries(t, y)


PRED_CFG = SearchConfig(1.5, 2.5, n_long=30, n_short=30)


def test_prediction_splits_and_scores():
    ts = clean_cosine_series()
    reps = prediction_test(ts, 35, [ModelSpec(1, 1, 0)], PRED_CFG, FAST)
    assert len(reps) == 1
    r = reps[0]
    assert (r.analysis.n, r.n_pred) == (35, 15)
    assert r.predicted.shape == (15,)
    assert r.residuals_pred.shape == (15,)
    # noise-free data: the withheld points are hit almost exactly
    assert r.z_pred < 1e-9
    assert np.allclose(r.residuals_pred, ts.y[35:] - r.predicted, atol=0)


def test_prediction_float_split_is_a_time_cut():
    ts = clean_cosine_series()
    k = int(np.searchsorted(ts.t, 0.9, side="right"))
    reps = prediction_test(ts, 0.9, [ModelSpec(1, 1, 0)], PRED_CFG, FAST)
    assert reps[0].analysis.n == k


def test_prediction_mean_over_one_period_recovers_the_level():
    ts = clean_cosine_series()
    reps = prediction_test(ts, 35, [ModelSpec(1, 1, 0)], PRED_CFG, FAST,
                           window=(1.0, 1.5))
    # window spans one full cycle of the fitted f = 2, the wave averages out
    assert reps[0].m_pred == pytest.approx(3.0, abs=2e-3)


def test_prediction_weighted_misfit_uses_sigma():
    ts0 = clean_cosine_series()
    rng = np.random.default_rng(41)
    y = ts0.y + rng.normal(0, 0.05, ts0.n)
    ts = TimeSeries(ts0.t, y, np.full(ts0.n, 0.05))
    r = prediction_test(ts, 35, [ModelSpec(1, 1, 0)], PRED_CFG, FAST)[0]
    resid = ts.y[35:] - r.predicted
    assert r.z_pred == pytest.approx(
        np.sqrt(np.mean((resid / 0.05) ** 2)), rel=1e-12)


def test_prediction_full_series_needs_a_window():
    ts = clean_cosine_series()
    with pytest.raises(ConfigError):
        prediction_test(ts, ts.n, [ModelSpec(0, 1, 0)], PRED_CFG, FAST)
    r = prediction_test(ts, ts.n, [ModelSpec(0, 1, 0)], PRED_CFG, FAST,
                        window=(2.0, 3.0))[0]
    assert r.z_pred is None and r.residuals_pred is None
    assert r.n_pred == 0
    assert r.m_pred == pytest.approx(np.mean(ts.y), rel=1e-12)


def test_prediction_rejects_a_repeated_shape():
    specs = [ModelSpec(1, 1, 0), ModelSpec(1, 1, 0)]
    with pytest.raises(ConfigError, match=r"duplicate model shape g\(1,1,0\)"):
        prediction_test(clean_cosine_series(), 35, specs, PRED_CFG, FAST)


def test_prediction_split_validation():
    ts = clean_cosine_series()
    specs = [ModelSpec(1, 1, 0)]
    with pytest.raises(ConfigError):
        prediction_test(ts, 1, specs, PRED_CFG, FAST)
    with pytest.raises(ConfigError):
        prediction_test(ts, ts.n + 1, specs, PRED_CFG, FAST)
    with pytest.raises(ConfigError):
        prediction_test(ts, True, specs, PRED_CFG, FAST)


def test_predicted_mean_linear_trend_is_exact():
    ts = clean_cosine_series()
    stats = span_stats(ts)
    spec = ModelSpec(0, 1, 1)
    from dcmethod.model import BetaVector
    beta = BetaVector(np.empty(0), np.array([2.0, 0.5]))
    # mean of a linear function over an even grid is its midpoint value
    t_a, t_b = 0.2, 0.8
    mid = (t_a + t_b) / 2
    expect = 2.0 + 0.5 * (2 * (mid - stats.t_mid) / stats.delta_t)
    assert predicted_mean(spec, beta, stats, (t_a, t_b)) == \
        pytest.approx(expect, rel=1e-12)


def test_predicted_mean_validation():
    ts = clean_cosine_series()
    stats = span_stats(ts)
    from dcmethod.model import BetaVector
    beta = BetaVector(np.empty(0), np.array([2.0]))
    spec = ModelSpec(0, 1, 0)
    with pytest.raises(ConfigError):
        predicted_mean(spec, beta, stats, (0.8, 0.2))
    with pytest.raises(ConfigError):
        predicted_mean(spec, beta, stats, (0.2, 0.8), n_points=0)
