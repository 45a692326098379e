"""Model structure and evaluation.

The fitted model is a sum of ``k1`` periodic signals and an optional
polynomial trend,

    g(t) = sum_i sum_j [B_ij cos(2 pi j f_i t) + C_ij sin(2 pi j f_i t)]
           + sum_k M_k T^k,      T = 2 (t - t_mid) / delta_t,

where each signal carries ``k2`` harmonics of its base frequency and
the trend runs over powers 0..k3 (k3 = -1 removes it entirely).  Given
the frequencies, the model is linear in every remaining coefficient.

Signal summaries
----------------
``summarize_signals`` describes each signal by its extrema over one
period, found on N = 10001 samples t_k = t0 + k P / N (t0 the first
observation time, P = 1 / f) and sharpened by a parabola through each
extremum and its two neighbours.  Its result is defined as that dense
scan's, bit for bit, but it evaluates only the samples that can matter.

Notation: u = 2^-53.  A sample is computed as ``signal_values`` computes
it, elementwise: theta_k = fl(omega fl(t0 + fl(s k))) with omega =
fl(2 pi f) and s = fl(P / N), then

    h_k = sum_j fl(B_j cos(fl(j theta_k)) + C_j sin(fl(j theta_k))),

added in order j = 1..k2.  As a function of theta, h(theta) = sum_j B_j
cos(j theta) + C_j sin(j theta) has |h''| <= S2 = sum_j j^2 (|B_j| +
|C_j|); write S0 and S1 for the sums with weights 1 and j.  The only
assumption on the library is that a computed cos or sin is within
e_t = 2^-48 (32 u) of the true value, against the < 1 ulp of a
correctly rounded libm.  (NumPy 2.4 on x86-64 Linux matched
``math.cos`` and ``math.sin`` bit for bit on 400,000 arguments up to
1e10.)

The samples are cut into windows of W = 64: window i owns samples
[W i, W (i + 1)) and spans one more on each side, so it holds both
neighbours of every sample it owns.  A sample is an extremum only if
its neighbours are not strictly below and above it, so a window whose
computed samples are strictly monotone owns no extremum, whatever its
neighbouring windows hold (two certified neighbours share one step,
and so a sign).  Only the owned samples of uncertified windows are
tested, against neighbours evaluated with them.  The first and last
windows wrap around the period (their outer neighbours are samples
N - 1 and 0) and are always evaluated.  For every other window, let
theta_lo and theta_hi be its computed end phases (computed theta_k is
monotone in k, so the window's phases lie between them) and Theta =
max(|theta_lo|, |theta_hi|):

- Sample error.  Each term of h_k is off by at most (|B_j| + |C_j|)
  (e_t + u j Theta) from the argument and the trig call, and the
  products and k2 - 1 additions add (k2 + 2) u S0, so
  |h_k - h(theta_k)| <= E = S0 (e_t + (k2 + 10) u) + u Theta S1.
- Slope.  D, the computed h'(m) = sum_j j (C_j cos(j m) - B_j
  sin(j m)) at the computed midpoint m, is within E' = S1 (e_t +
  (k2 + 10) u) + u Theta S2 of it, the 10 u also covering the
  roundings of L below.  Within w = (theta_hi - theta_lo) / 2 +
  u Theta of m, |h'| >= L = |D| - E' - S2 w.
- Step.  fl(s k), t_k and theta_k are rounded by at most u |s k|,
  u |t_k| and u |theta_k|, so theta_k is within u (|omega s k| +
  2 Theta) of omega (t0 + s k), where |omega s k| <= |omega s| N =
  2 pi (1 + 3 u) < 7.  Consecutive computed phases therefore differ by
  at least d = |omega s| - 2 u (7 + 2 Theta).

If L > 0 and L d > 2 E, consecutive true values differ by more than
L d and the computed samples by more than L d - 2 E > 0, all with the
sign of D: the window is certified and skipped.  Every bound above
is inflated by the factor 1 + 2^-10 (d deflated by it), which covers
second-order terms and the rounding of the bounds themselves.  A
generous margin costs nothing: unless Theta is huge, E is near
5e-15 S0 and L d > 2 E needs |h'| above about 2e-11 S0 (d is about
2 pi / N = 6.3e-4), while the curvature term S2 w, with w about 32
steps or 0.02, leaves every window within about 0.03 rad of an
extremum uncertified whatever the trig margin.  Skipped samples are
never computed, so the certificate also rests on cos and sin giving
the same bits for an element whichever array it sits in.  A signal
where nothing can be certified evaluates every window, which is the
dense scan's work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .timeseries import SpanStats

__all__ = [
    "ModelSpec", "BetaVector", "SignalReport", "SignalSummary",
    "design_matrix", "eval_model", "signal_values", "trend_values",
    "trend_ranges", "summarize_signals",
]

# Dense scan that defines a signal's extrema, refined by a local
# parabola, and the samples per window of its certified sparse form.
_N_SCAN = 10001
_WINDOW = 64
# Two extrema closer in value than this fraction of the amplitude are
# treated as one (ties broken by earlier epoch).
_TIE_FRAC = 1e-9
# Unit roundoff, the error allowed for one computed cos or sin, and the
# headroom of every bound of the certificate (module docstring).
_U = 2.0 ** -53
_TRIG_ERR = 2.0 ** -48
_SLACK = 2.0 ** -10


@dataclass(frozen=True)
class ModelSpec:
    """Structural shape of a model: ``k1`` signals with ``k2`` harmonics
    each, plus a polynomial trend of order ``k3`` (-1 for none).
    """

    k1: int
    k2: int
    k3: int

    def __post_init__(self):
        if self.k1 < 0:
            raise ConfigError("k1 must be >= 0")
        if self.k2 < 1:
            raise ConfigError("k2 must be >= 1")
        if self.k3 < -1:
            raise ConfigError("k3 must be >= -1")
        if self.k1 == 0 and self.k3 == -1:
            raise ConfigError("empty model: no signals and no trend")

    @property
    def eta(self) -> int:
        """Number of free parameters."""
        return self.k1 * (2 * self.k2 + 1) + self.k3 + 1

    @property
    def n_linear(self) -> int:
        """Number of linear coefficients (everything except frequencies)."""
        return 2 * self.k1 * self.k2 + self.k3 + 1

    @property
    def n_trend(self) -> int:
        return self.k3 + 1

    @property
    def label(self) -> str:
        return f"g({self.k1},{self.k2},{self.k3})"


@dataclass
class BetaVector:
    """Model parameters split into the non-linear frequencies and the
    linear coefficients.

    ``linear`` holds, per signal, cos/sin pairs for harmonics 1..k2,
    followed by the trend coefficients M_0..M_k3.
    """

    freqs: np.ndarray
    linear: np.ndarray

    def __post_init__(self):
        self.freqs = np.atleast_1d(np.asarray(self.freqs, dtype=float))
        self.linear = np.atleast_1d(np.asarray(self.linear, dtype=float))

    def signal_coeffs(self, spec: ModelSpec, i: int) -> np.ndarray:
        """Cos/sin coefficient pairs of signal ``i`` (0-based), shape (k2, 2)."""
        off = i * 2 * spec.k2
        return self.linear[off:off + 2 * spec.k2].reshape(spec.k2, 2)

    def trend_coeffs(self, spec: ModelSpec) -> np.ndarray:
        n = spec.n_trend
        return self.linear[self.linear.size - n:]

    def interleaved(self, spec: ModelSpec) -> np.ndarray:
        """Full parameter vector [B_11, C_11, .., f_1, .., M_0, ..]."""
        freq_at, linear_at = layout(spec)
        out = np.empty(spec.eta)
        out[freq_at] = self.freqs
        out[linear_at] = self.linear
        return out

    @classmethod
    def from_interleaved(cls, spec: ModelSpec, vec) -> "BetaVector":
        vec = np.asarray(vec, dtype=float)
        if vec.size != spec.eta:
            raise ConfigError(f"expected {spec.eta} parameters, got {vec.size}")
        freq_at, linear_at = layout(spec)
        return cls(vec[freq_at], vec[linear_at])


def layout(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the frequencies and of the linear coefficients, in
    ``BetaVector.linear`` order, in the interleaved parameter vector:
    each signal's cos/sin pairs followed by its frequency, then the trend."""
    freq_at = np.arange(spec.k1) * (2 * spec.k2 + 1) + 2 * spec.k2
    linear = np.ones(spec.eta, dtype=bool)
    linear[freq_at] = False
    return freq_at, np.flatnonzero(linear)


def param_names(spec: ModelSpec) -> list[str]:
    """Names of the interleaved parameter vector entries, 1-based indices."""
    names = []
    for i in range(1, spec.k1 + 1):
        for j in range(1, spec.k2 + 1):
            names += [f"B_{i}_{j}", f"C_{i}_{j}"]
        names.append(f"f_{i}")
    names += [f"M_{k}" for k in range(spec.k3 + 1)]
    return names


def scaled_time(t, stats: SpanStats):
    """Trend variable T = 2 (t - t_mid) / delta_t, in [-1, 1] on the span."""
    return 2.0 * (np.asarray(t, dtype=float) - stats.t_mid) / stats.delta_t


def design_matrix(t, spec: ModelSpec, freqs, stats: SpanStats) -> np.ndarray:
    """Matrix of the model's linear terms at the given frequencies.

    Parameters
    ----------
    t : array_like, shape (n,)
        Evaluation times.
    freqs : array_like, shape (k1,) or (B, k1)
        One frequency tuple, or a batch of tuples.  A batch yields a
        stacked result.

    Returns
    -------
    ndarray, shape (n, m) or (B, n, m)
        Columns are cos/sin pairs for each signal harmonic, then trend
        powers T^0..T^k3.  ``m = 2 k1 k2 + k3 + 1``.
    """
    t = np.asarray(t, dtype=float)
    fa = np.asarray(freqs, dtype=float)
    single = fa.ndim <= 1
    fa = np.atleast_2d(fa)
    if fa.shape[1] != spec.k1:
        raise ConfigError(f"expected {spec.k1} frequencies, got {fa.shape[1]}")
    nb = fa.shape[0]
    n = t.size
    m = spec.n_linear
    out = np.empty((nb, n, m))
    col = 0
    for i in range(spec.k1):
        base = 2.0 * np.pi * fa[:, i, None] * t[None, :]
        for j in range(1, spec.k2 + 1):
            phase = base if j == 1 else j * base
            out[:, :, col] = np.cos(phase)
            out[:, :, col + 1] = np.sin(phase)
            col += 2
    if spec.k3 >= 0:
        tt = scaled_time(t, stats)
        power = np.ones_like(tt)
        for k in range(spec.k3 + 1):
            if k:
                power = power * tt
            out[:, :, col + k] = power[None, :]
    return out[0] if single else out


def eval_model(t, spec: ModelSpec, beta: BetaVector, stats: SpanStats) -> np.ndarray:
    """Evaluate g(t) for one parameter vector."""
    a = design_matrix(t, spec, beta.freqs, stats)
    return a @ beta.linear


def _harmonic_sum(base, b, c):
    """sum_j b[j-1] cos(j base) + c[j-1] sin(j base), added in order;
    ``b`` and ``c`` hold one scalar or one array per harmonic."""
    h = np.zeros_like(base)
    for j in range(1, len(b) + 1):
        h += b[j - 1] * np.cos(j * base) + c[j - 1] * np.sin(j * base)
    return h


def signal_values(t, spec: ModelSpec, beta: BetaVector, stats: SpanStats, i: int):
    """Evaluate the i-th signal component h_i(t) alone (0-based)."""
    t = np.asarray(t, dtype=float)
    coeffs = beta.signal_coeffs(spec, i)
    return _harmonic_sum(2.0 * np.pi * beta.freqs[i] * t, coeffs[:, 0], coeffs[:, 1])


def trend_values(t, spec: ModelSpec, beta: BetaVector, stats: SpanStats):
    """Evaluate the polynomial trend p(t) alone (zero when k3 = -1)."""
    t = np.asarray(t, dtype=float)
    if spec.k3 < 0:
        return np.zeros_like(t)
    tt = scaled_time(t, stats)
    m = beta.trend_coeffs(spec)
    return np.polyval(m[::-1], tt)


def trend_ranges(spec: ModelSpec, beta: BetaVector) -> np.ndarray:
    """Full range of variation of each trend term over the span.

    With T in [-1, 1], the term M_k T^k spans 2|M_k| for odd k and
    |M_k| for even k (including the constant).
    """
    return _ranges(beta.trend_coeffs(spec))


def _ranges(m: np.ndarray) -> np.ndarray:
    """``trend_ranges`` of trend coefficients along the last axis."""
    out = np.abs(m).astype(float)
    out[..., 1::2] *= 2.0
    return out


@dataclass
class SignalReport:
    """Derived description of one signal over a single period.

    Epochs are mapped into the window [t_start, t_start + period).
    Secondary extrema are present only when the curve genuinely shows
    two minima or maxima per period.  ``tie`` records that the primary
    extremum was picked by earlier epoch among equals.  A flat signal
    (all coefficients zero) has amplitude 0 and no epochs.
    """

    period: float
    amplitude: float
    t_max1: float | None = None
    t_min1: float | None = None
    t_max2: float | None = None
    t_min2: float | None = None
    tie: bool = False


@dataclass
class SignalSummary:
    signals: list[SignalReport]
    trend: np.ndarray
    trend_ranges: np.ndarray


def _parabolic_peak(v_prev, v0, v_next):
    """Vertex offset (in samples, |d| <= 1/2) and value of the parabola
    through three equally spaced points around an extremum."""
    denom = v_prev - 2.0 * v0 + v_next
    if denom == 0.0:
        return 0.0, v0
    d = 0.5 * (v_prev - v_next) / denom
    d = min(0.5, max(-0.5, d))
    val = v0 - 0.25 * (v_prev - v_next) * d
    return d, val


def _local_extrema(values, sign):
    """Indices of local maxima (sign=+1) or minima (sign=-1) on a
    periodic sample grid."""
    v = sign * values
    n = v.size
    peak = np.empty(n, dtype=bool)
    peak[1:-1] = (v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:])
    # the two ends are each other's neighbours
    peak[0] = v[0] >= v[-1] and v[0] > v[1 % n]
    peak[-1] = v[-1] >= v[-2 % n] and v[-1] > v[0]
    return np.flatnonzero(peak)


# First owned sample of each window of the scan, and one past its last.
_STARTS = np.arange(0, _N_SCAN, _WINDOW)
_STOPS = np.append(_STARTS[1:], _N_SCAN)


def _certified(omega, step, t0, b, c):
    """Per signal line and window, whether the computed samples are
    certified strictly monotone (module docstring); False for the two
    wrap windows.  ``omega`` and ``step`` are (L,), ``b`` and ``c``
    (L, k2)."""
    lo = omega[:, None] * (t0 + step[:, None] * (_STARTS[1:-1] - 1))
    hi = omega[:, None] * (t0 + step[:, None] * _STOPS[1:-1])
    big = np.maximum(np.abs(lo), np.abs(hi))
    mid = 0.5 * (lo + hi)
    slope = np.zeros_like(mid)
    for j in range(1, b.shape[1] + 1):
        slope += j * (c[:, j - 1, None] * np.cos(j * mid)
                      - b[:, j - 1, None] * np.sin(j * mid))
    weight = np.abs(b) + np.abs(c)
    j = np.arange(1, b.shape[1] + 1)
    s0, s1, s2 = ((weight * j ** p).sum(axis=1)[:, None] for p in range(3))
    trig = _TRIG_ERR + (b.shape[1] + 10) * _U
    up, down = 1.0 + _SLACK, 1.0 - _SLACK
    err = up * (s0 * trig + _U * big * s1)
    half = up * (0.5 * (hi - lo) + _U * big)
    lower = np.abs(slope) - up * (s1 * trig + _U * big * s2) - up * s2 * half
    gap = down * np.abs(omega * step)[:, None] - 2.0 * up * _U * (7.0 + 2.0 * big)
    out = np.zeros((omega.size, _STARTS.size), dtype=bool)
    out[:, 1:-1] = (lower > 0.0) & (lower * gap > 2.0 * err)
    return out


def _report(k2, period, t0, step, maxima, minima) -> SignalReport:
    """One signal's report from its extrema on the scan, each given as
    (index, previous, own and next sample), in index order."""
    def refine(found):
        out = []
        for k, v_prev, v0, v_next in found:
            d, val = _parabolic_peak(v_prev, v0, v_next)
            epoch = t0 + ((k + d) * step) % period
            out.append((epoch, val))
        return out

    maxima = refine(maxima)
    minima = refine(minima)
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
        if k2 >= 2 and rest:
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
    return rep


def _signal_reports(f, coef, t0, k2) -> list[SignalReport]:
    """Reports of L signal lines: frequencies ``f`` (L,), cos/sin
    coefficients ``coef`` (L, k2, 2), all scanned from ``t0``."""
    reports = [SignalReport(period=1.0 / fi if fi != 0.0 else np.inf, amplitude=0.0)
               for fi in f.tolist()]
    lines = np.flatnonzero((f != 0.0) & coef.any(axis=(1, 2)))
    if not lines.size:
        return reports
    b, c = coef[lines, :, 0], coef[lines, :, 1]
    step = 1.0 / f[lines] / _N_SCAN
    omega = 2.0 * np.pi * f[lines]
    # each evaluated window's samples with one neighbour on each side
    line, win = np.nonzero(~_certified(omega, step, t0, b, c))
    k = _STARTS[win, None] - 1 + np.arange(_WINDOW + 2)
    keep = k <= _STOPS[win, None]
    own = ((k >= _STARTS[win, None]) & (k < _STOPS[win, None]))[keep]
    at = np.broadcast_to(line[:, None], k.shape)[keep]
    k = k[keep] % _N_SCAN
    h = _harmonic_sum(omega[at] * (t0 + step[at] * k), b.T[:, at], c.T[:, at])

    found = []
    for sign in (+1, -1):
        q = _local_extrema(h, sign)
        q = q[own[q]]
        cut = np.searchsorted(at[q], np.arange(lines.size + 1))
        rows = list(zip(k[q], h[q - 1], h[q], h[q + 1]))
        found.append([rows[a:z] for a, z in zip(cut[:-1], cut[1:])])
    for i, maxima, minima in zip(lines.tolist(), *found):
        period = 1.0 / float(f[i])
        reports[i] = _report(k2, period, t0, period / _N_SCAN, maxima, minima)
    return reports


def summarize_signals(spec: ModelSpec, beta, stats: SpanStats):
    """Derive periods, amplitudes and extremum epochs from parameters.

    ``beta`` is a ``BetaVector``, summarised into one ``SignalSummary``,
    or an (R, eta) array of interleaved parameter rows, summarised into a
    list of R, all in one stacked evaluation.  Each signal is scanned
    over one period starting at the first observation time, only where
    the samples are not certified monotone (module docstring), with the
    dense scan's result bit for bit; extrema are then sharpened with a
    local parabola fit.  The amplitude is the peak-to-peak range of the
    signal component.
    """
    if isinstance(beta, BetaVector):
        return summarize_signals(spec, beta.interleaved(spec)[None], stats)[0]
    params = np.asarray(beta, dtype=float)
    freq_at, linear_at = layout(spec)
    linear = params[:, linear_at]
    n_signal = 2 * spec.k1 * spec.k2
    coef = linear[:, :n_signal].reshape(params.shape[0] * spec.k1, spec.k2, 2)
    reports = _signal_reports(params[:, freq_at].ravel(), coef, stats.t_start, spec.k2)
    trend = linear[:, n_signal:]
    ranges = _ranges(trend)
    return [SignalSummary(signals=reports[r * spec.k1:(r + 1) * spec.k1],
                          trend=trend[r], trend_ranges=ranges[r])
            for r in range(params.shape[0])]
