"""Model structure, design matrix and signal summaries.

The extremum tests use a brute-force oracle: sample the signal on a
very dense grid over one period and locate extrema directly, instead of
trusting the scan-plus-parabola machinery under test.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcmethod import (
    BetaVector,
    ConfigError,
    ModelSpec,
    SpanStats,
    TimeSeries,
    design_matrix,
    eval_model,
    signal_values,
    solve_linear,
    summarize_signals,
    trend_ranges,
    trend_values,
)
from dcmethod.model import (SignalReport, SignalSummary, _local_extrema,
                            _parabolic_peak, interleave, param_names, scaled_time)

UNIT = SpanStats(t_mid=0.5, delta_t=1.0, f0=1.0, y_mean=0.0, y_std=0.0)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------

def test_eta_counts_free_parameters():
    assert ModelSpec(1, 1, 0).eta == 4
    assert ModelSpec(1, 1, -1).eta == 3
    assert ModelSpec(2, 1, 0).eta == 7
    assert ModelSpec(2, 2, 2).eta == 13
    assert ModelSpec(0, 1, 3).eta == 4


def test_n_linear_excludes_frequencies():
    spec = ModelSpec(2, 2, 1)
    assert spec.n_linear == spec.eta - spec.k1
    assert ModelSpec(1, 1, -1).n_linear == 2


def test_label():
    assert ModelSpec(2, 1, -1).label == "g(2,1,-1)"


def test_invalid_shapes_rejected():
    with pytest.raises(ConfigError):
        ModelSpec(-1, 1, 0)
    with pytest.raises(ConfigError):
        ModelSpec(1, 0, 0)
    with pytest.raises(ConfigError):
        ModelSpec(1, 1, -2)
    with pytest.raises(ConfigError):
        ModelSpec(0, 1, -1)  # nothing left to fit


def test_param_names_interleaved_order():
    names = param_names(ModelSpec(2, 2, 1))
    assert names == [
        "B_1_1", "C_1_1", "B_1_2", "C_1_2", "f_1",
        "B_2_1", "C_2_1", "B_2_2", "C_2_2", "f_2",
        "M_0", "M_1",
    ]


def test_interleaved_round_trip():
    spec = ModelSpec(2, 2, 1)
    rng = np.random.default_rng(3)
    beta = BetaVector(np.array([2.0, 1.0]), rng.normal(size=spec.n_linear))
    vec = beta.interleaved(spec)
    assert vec.size == spec.eta
    back = BetaVector.from_interleaved(spec, vec)
    assert np.array_equal(back.freqs, beta.freqs)
    assert np.array_equal(back.linear, beta.linear)
    # frequencies sit after each signal's cos/sin block
    assert vec[4] == 2.0 and vec[9] == 1.0

    # every entry, by name, on shapes with no signal, no trend and
    # several signals and harmonics; the polish's stacked rows agree
    for spec in (ModelSpec(2, 2, 1), ModelSpec(0, 1, 2), ModelSpec(1, 1, -1),
                 ModelSpec(2, 3, -1), ModelSpec(3, 2, 1)):
        freqs = rng.uniform(1.0, 3.0, size=(4, spec.k1))
        linear = rng.normal(size=(4, spec.n_linear))
        rows = interleave(spec, freqs, linear)
        for f, x, row in zip(freqs, linear, rows):
            beta = BetaVector(f, x)
            vec = beta.interleaved(spec)
            assert np.array_equal(row, vec), spec.label
            named = dict(zip(param_names(spec), vec))
            assert len(named) == spec.eta
            for i in range(spec.k1):
                assert named[f"f_{i + 1}"] == f[i]
                block = beta.signal_coeffs(spec, i)
                for j in range(spec.k2):
                    assert named[f"B_{i + 1}_{j + 1}"] == block[j, 0]
                    assert named[f"C_{i + 1}_{j + 1}"] == block[j, 1]
            for k, m in enumerate(beta.trend_coeffs(spec)):
                assert named[f"M_{k}"] == m
            back = BetaVector.from_interleaved(spec, vec)
            assert np.array_equal(back.freqs, f) and np.array_equal(back.linear, x)


def test_from_interleaved_wrong_length():
    with pytest.raises(ConfigError):
        BetaVector.from_interleaved(ModelSpec(1, 1, 0), np.zeros(3))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_scaled_time_endpoints():
    st = SpanStats(t_mid=5.0, delta_t=4.0, f0=0.25, y_mean=0.0, y_std=0.0)
    assert scaled_time(3.0, st) == -1.0
    assert scaled_time(7.0, st) == 1.0
    assert scaled_time(5.0, st) == 0.0


def test_design_matrix_columns_by_hand():
    spec = ModelSpec(1, 2, 1)
    t = np.array([0.0, 0.3, 0.8])
    f = 1.7
    a = design_matrix(t, spec, np.array([f]), UNIT)
    assert a.shape == (3, 6)
    w = 2 * np.pi * f * t
    assert np.allclose(a[:, 0], np.cos(w), atol=0, rtol=0)
    assert np.allclose(a[:, 1], np.sin(w), atol=0, rtol=0)
    assert np.allclose(a[:, 2], np.cos(2 * w))
    assert np.allclose(a[:, 3], np.sin(2 * w))
    assert np.allclose(a[:, 4], 1.0)
    assert np.allclose(a[:, 5], 2 * (t - 0.5))


def test_design_matrix_batch_matches_single():
    spec = ModelSpec(2, 1, 0)
    t = np.linspace(0, 1, 11)
    batch = np.array([[3.0, 1.0], [2.5, 0.5], [4.0, 3.9]])
    stacked = design_matrix(t, spec, batch, UNIT)
    assert stacked.shape == (3, 11, 5)
    for b in range(3):
        single = design_matrix(t, spec, batch[b], UNIT)
        assert np.array_equal(stacked[b], single)


def test_design_matrix_frequency_count_checked():
    with pytest.raises(ConfigError):
        design_matrix(np.linspace(0, 1, 5), ModelSpec(2, 1, 0),
                      np.array([1.0]), UNIT)


def test_a_pure_trend_takes_no_frequency():
    ts = TimeSeries(np.linspace(0, 1, 6), np.arange(6.0))
    spec = ModelSpec(0, 1, 1)
    with pytest.raises(ConfigError, match="expected 0 frequencies, got 1"):
        solve_linear(ts, spec, [1.0])
    with pytest.raises(ConfigError, match="expected 0 frequencies, got 1"):
        eval_model(ts.t, spec, BetaVector([1.0], [0.0, 1.0]), UNIT)


def test_eval_model_closed_form():
    # one harmonic plus a linear trend, coefficients chosen by hand
    spec = ModelSpec(1, 1, 1)
    beta = BetaVector(np.array([2.0]), np.array([0.3, -1.1, 0.7, 0.2]))
    t = np.linspace(0, 1, 17)
    w = 2 * np.pi * 2.0 * t
    expect = 0.3 * np.cos(w) - 1.1 * np.sin(w) + 0.7 + 0.2 * (2 * (t - 0.5))
    assert np.allclose(eval_model(t, spec, beta, UNIT), expect, rtol=1e-15)


def test_signal_and_trend_split_sums_to_model():
    spec = ModelSpec(2, 2, 2)
    rng = np.random.default_rng(11)
    beta = BetaVector(np.array([4.0, 1.5]), rng.normal(size=spec.n_linear))
    t = np.linspace(0, 1, 23)
    total = (signal_values(t, spec, beta, UNIT, 0)
             + signal_values(t, spec, beta, UNIT, 1)
             + trend_values(t, spec, beta, UNIT))
    assert np.allclose(total, eval_model(t, spec, beta, UNIT), rtol=1e-13)


def test_trend_values_empty_when_removed():
    spec = ModelSpec(1, 1, -1)
    beta = BetaVector(np.array([1.0]), np.array([1.0, 0.0]))
    assert np.array_equal(trend_values(np.array([0.1, 0.9]), spec, beta, UNIT),
                          [0.0, 0.0])


def test_trend_ranges_doubles_odd_powers():
    spec = ModelSpec(0, 1, 3)
    beta = BetaVector(np.empty(0), np.array([1.0, 0.25, 0.5, -0.3]))
    # T in [-1, 1]: odd powers span 2|M|, even powers |M|
    assert np.allclose(trend_ranges(spec, beta), [1.0, 0.5, 0.5, 0.6])


# ---------------------------------------------------------------------------
# signal summaries
# ---------------------------------------------------------------------------

def rolled_extrema(values, sign):
    """The extrema test on a periodic grid, through np.roll copies."""
    v = sign * values
    return np.where((v >= np.roll(v, 1)) & (v > np.roll(v, -1)))[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10_001])
def test_local_extrema_equal_the_rolled_form(n):
    rng = np.random.default_rng(n)
    for trial in range(100):
        # random values, then plateaus of small integers, wrap included
        v = rng.normal(size=n) if trial % 2 else rng.integers(0, 3, n).astype(float)
        for sign in (+1, -1):
            assert np.array_equal(_local_extrema(v, sign), rolled_extrema(v, sign))
    h = np.cos(2 * np.pi * 3 * np.arange(n) / n)
    assert np.array_equal(_local_extrema(h, -1), rolled_extrema(h, -1))


def brute_extrema(spec, beta, i, t0, n=2_000_001):
    """Dense-grid oracle for one signal's extrema over one period."""
    period = 1.0 / beta.freqs[i]
    tg = t0 + np.linspace(0.0, period, n, endpoint=False)
    h = signal_values(tg, spec, beta, UNIT, i)
    return tg, h


def test_pure_sine_amplitude_identity():
    # a single-harmonic signal has peak-to-peak range 2 sqrt(B^2 + C^2)
    spec = ModelSpec(1, 1, 0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        b, c = rng.normal(size=2)
        beta = BetaVector(np.array([1.3]), np.array([b, c, 0.0]))
        s = summarize_signals(spec, beta, UNIT).signals[0]
        assert s.amplitude == pytest.approx(2 * np.hypot(b, c), rel=1e-9)


def test_pure_sine_epochs():
    # B cos(wt): maximum at t = 0 and minimum half a period later
    spec = ModelSpec(1, 1, 0)
    beta = BetaVector(np.array([2.0]), np.array([1.0, 0.0, 0.0]))
    s = summarize_signals(spec, beta, UNIT).signals[0]
    assert s.period == 0.5
    assert s.t_max1 == pytest.approx(0.0, abs=1e-9)
    assert s.t_min1 == pytest.approx(0.25, abs=1e-9)
    assert s.t_max2 is None and s.t_min2 is None
    assert not s.tie


def test_epochs_fall_in_first_period_window():
    spec = ModelSpec(1, 1, 0)
    beta = BetaVector(np.array([0.9]), np.array([0.2, -1.4, 0.0]))
    s = summarize_signals(spec, beta, UNIT).signals[0]
    for e in (s.t_max1, s.t_min1):
        assert 0.0 <= e < s.period


def test_two_harmonic_summary_against_brute_force():
    spec = ModelSpec(1, 2, 0)
    beta = BetaVector(np.array([1.0 / 0.16]),
                      np.array([0.37, 0.11, -0.23, 0.69, 0.0]))
    s = summarize_signals(spec, beta, UNIT).signals[0]
    tg, h = brute_extrema(spec, beta, 0, t0=0.0)
    assert s.amplitude == pytest.approx(np.ptp(h), rel=1e-8)
    assert s.t_max1 == pytest.approx(tg[np.argmax(h)], abs=1e-6)
    assert s.t_min1 == pytest.approx(tg[np.argmin(h)], abs=1e-6)
    # a double wave has a genuine secondary pair
    assert s.t_max2 is not None and s.t_min2 is not None


def test_flat_signal_has_zero_amplitude():
    spec = ModelSpec(1, 1, 0)
    beta = BetaVector(np.array([1.0]), np.array([0.0, 0.0, 0.4]))
    s = summarize_signals(spec, beta, UNIT).signals[0]
    assert s.amplitude == 0.0
    assert s.t_max1 is None and s.t_min1 is None


def test_equal_extrema_tie_flagged():
    # |sin| - like double wave: cos(2wt) only, two equal maxima per period
    spec = ModelSpec(1, 2, 0)
    beta = BetaVector(np.array([1.0]), np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    s = summarize_signals(spec, beta, UNIT).signals[0]
    assert s.tie
    # earlier epoch wins among the equals
    assert s.t_max1 == pytest.approx(0.0, abs=1e-6)


def test_no_secondary_for_single_harmonic_even_if_k2_allows():
    # k2 = 2 but the second harmonic is zero: one max and one min only
    spec = ModelSpec(1, 2, 0)
    beta = BetaVector(np.array([1.0]), np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    s = summarize_signals(spec, beta, UNIT).signals[0]
    assert s.t_max2 is None and s.t_min2 is None


def test_summary_covers_all_signals_and_trend():
    spec = ModelSpec(2, 1, 1)
    beta = BetaVector(np.array([3.0, 1.0]),
                      np.array([1.0, 0.0, 0.0, 0.5, 2.0, -0.7]))
    out = summarize_signals(spec, beta, UNIT)
    assert len(out.signals) == 2
    assert np.array_equal(out.trend, [2.0, -0.7])
    assert np.allclose(out.trend_ranges, [2.0, 1.4])


# ---------------------------------------------------------------------------
# certified sparse summaries against the dense scan
# ---------------------------------------------------------------------------

_N_SCAN = 10001
_TIE_FRAC = 1e-9


def dense_summary(spec, beta, stats):
    """The summary as a scan of all 10,001 samples computed it: the
    reference the sparse scan must match bit for bit."""
    reports = []
    for i in range(spec.k1):
        f = float(beta.freqs[i])
        period = 1.0 / f if f != 0.0 else np.inf
        coeffs = beta.signal_coeffs(spec, i)
        if f == 0.0 or not np.any(coeffs):
            reports.append(SignalReport(period=period, amplitude=0.0))
            continue
        t0 = stats.t_start
        step = period / _N_SCAN
        tgrid = t0 + step * np.arange(_N_SCAN)
        h = signal_values(tgrid, spec, beta, stats, i)

        def refine(idx):
            out = []
            for k in idx:
                d, val = _parabolic_peak(h[k - 1], h[k], h[(k + 1) % _N_SCAN])
                epoch = t0 + ((k + d) * step) % period
                out.append((epoch, val))
            return out

        maxima = refine(_local_extrema(h, +1))
        minima = refine(_local_extrema(h, -1))
        amp = max(v for _, v in maxima) - min(v for _, v in minima)
        rep = SignalReport(period=period, amplitude=amp)

        def pick(cands, sign):
            # primary: best value; equal values resolved by earlier epoch
            best = sign * max(sign * v for _, v in cands)
            tol = _TIE_FRAC * amp
            primary_pool = [(e, v) for e, v in cands if abs(v - best) <= tol]
            tie = len(primary_pool) > 1
            primary = min(primary_pool, key=lambda ev: ev[0])
            rest = [ev for ev in cands if ev is not primary and abs(ev[1] - best) > tol]
            secondary = None
            if spec.k2 >= 2 and rest:
                secondary = max(rest, key=lambda ev: sign * ev[1])
            return primary, secondary, tie

        (e, _), sec_max, tie_max = pick(maxima, +1)
        rep.t_max1 = e
        if sec_max is not None:
            rep.t_max2 = sec_max[0]
        (e, _), sec_min, tie_min = pick(minima, -1)
        rep.t_min1 = e
        if sec_min is not None:
            rep.t_min2 = sec_min[0]
        rep.tie = tie_max or tie_min
        reports.append(rep)

    if spec.k3 >= 0:
        trend = beta.trend_coeffs(spec).copy()
        ranges = trend_ranges(spec, beta)
    else:
        trend = np.empty(0)
        ranges = np.empty(0)
    return SignalSummary(signals=reports, trend=trend, trend_ranges=ranges)


def summary_bits(summary):
    """Every field of a summary: floats as their bytes, Nones and ties."""
    def bits(x):
        return None if x is None else struct.pack("<d", x)

    return ([(bits(r.period), bits(r.amplitude), bits(r.t_max1), bits(r.t_min1),
              bits(r.t_max2), bits(r.t_min2), r.tie) for r in summary.signals],
            summary.trend.tobytes(), summary.trend_ranges.tobytes())


ORIGINS = (0.0, 10.0, -10.0, 1e3, 2.45e6, 1e9)


@st.composite
def summary_cases(draw):
    """Stacks of parameter rows: generic signals, ties (only the top
    harmonic non-zero), flat shoulders (1e-7 higher harmonics) and
    all-zero signals, over time origins far from zero."""
    spec = ModelSpec(draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                     draw(st.integers(-1, 2)))
    t0 = draw(st.sampled_from(ORIGINS))
    span = draw(st.sampled_from((1.0, 37.5)))
    stats = SpanStats(t_mid=t0 + span / 2, delta_t=span, f0=1.0 / span,
                      y_mean=0.0, y_std=1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        cycles = 10.0 ** rng.uniform(-2.0, 2.0, spec.k1)
        linear = rng.normal(size=spec.n_linear) * 10.0 ** rng.uniform(-6.0, 6.0)
        coeffs = linear[:2 * spec.k1 * spec.k2].reshape(spec.k1, spec.k2, 2)
        shape = draw(st.sampled_from(("generic", "tie", "shoulder", "zero")))
        if shape == "tie":
            coeffs[:, :-1] = 0.0
        elif shape == "shoulder":
            coeffs[:, 1:] *= 1e-7
        elif shape == "zero":
            coeffs[:] = 0.0
        rows.append(BetaVector(cycles / span, linear))
    return spec, stats, rows


@settings(max_examples=40, deadline=None)
@given(summary_cases())
def test_summaries_equal_the_dense_scan_bit_for_bit(case):
    spec, stats, rows = case
    params = np.array([b.interleaved(spec) for b in rows])
    stacked = summarize_signals(spec, params, stats)
    assert len(stacked) == len(rows)
    for beta, got in zip(rows, stacked):
        want = summary_bits(dense_summary(spec, beta, stats))
        assert summary_bits(got) == want
        assert summary_bits(summarize_signals(spec, beta, stats)) == want


def test_summary_ties_and_shoulders_match_the_dense_scan():
    # exact ties: two equal maxima per period (cos 2 theta alone), at the
    # bench's and a far time origin; and a 1e-7 second harmonic, whose
    # shoulders nearly flatten the slope
    cases = [(ModelSpec(1, 2, 0), [1.0], [0.0, 0.0, 1.0, 0.0, 0.0], True),
             (ModelSpec(1, 3, -1), [1.3], [0.0, 0.0, 0.0, 0.0, 0.4, -0.2], True),
             (ModelSpec(1, 2, 0), [0.7], [0.8, -0.3, 1e-7, 3e-8, 0.0], False),
             (ModelSpec(2, 1, 0), [2.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0], False)]
    for t0 in ORIGINS:
        stats = SpanStats(t_mid=t0 + 0.5, delta_t=1.0, f0=1.0, y_mean=0.0, y_std=1.0)
        for spec, f, linear, tie in cases:
            beta = BetaVector(np.array(f), np.array(linear))
            got = summarize_signals(spec, beta, stats)
            assert summary_bits(got) == summary_bits(dense_summary(spec, beta, stats))
            assert got.signals[0].tie == tie


def test_cos_and_sin_of_an_index_subset_equal_the_full_evaluation():
    # the sparse scan evaluates only some samples of a phase array; it
    # relies on each element's cos and sin not depending on the array
    # it is computed in (length, offset, neighbours)
    rng = np.random.default_rng(0)
    for scale in (1.0, 1e3, 1e10):
        x = scale * (2.0 * rng.random(10_001) - 1.0)
        for fn in (np.cos, np.sin):
            full = fn(x)
            for size in (1, 2, 3, 7, 8, 9, 15, 16, 17, 66, 300, 5000):
                idx = np.sort(rng.choice(x.size, size, replace=False))
                assert np.array_equal(fn(x[idx]), full[idx])
                start = int(rng.integers(0, x.size - size))
                assert np.array_equal(fn(x[start:start + size]), full[start:start + size])
