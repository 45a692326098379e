"""Model structure and evaluation.

The fitted model is a sum of ``k1`` periodic signals and an optional
polynomial trend,

    g(t) = sum_i sum_j [B_ij cos(2 pi j f_i t) + C_ij sin(2 pi j f_i t)]
           + sum_k M_k T^k,      T = 2 (t - t_mid) / delta_t,

where each signal carries ``k2`` harmonics of its base frequency and
the trend runs over powers 0..k3 (k3 = -1 removes it entirely).  Given
the frequencies, the model is linear in every remaining coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import ConfigError
from .timeseries import SpanStats

__all__ = [
    "ModelSpec", "BetaVector", "SignalReport", "SignalSummary",
    "design_matrix", "eval_model", "signal_values", "trend_values",
    "trend_ranges", "summarize_signals",
]

# Dense scan used to locate signal extrema, refined by a local parabola.
_N_SCAN = 10001
# Two extrema closer in value than this fraction of the amplitude are
# treated as one (ties broken by earlier epoch).
_TIE_FRAC = 1e-9


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
    if spec.k1 and fa.shape[1] != spec.k1:
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


def signal_values(t, spec: ModelSpec, beta: BetaVector, stats: SpanStats, i: int):
    """Evaluate the i-th signal component h_i(t) alone (0-based)."""
    t = np.asarray(t, dtype=float)
    coeffs = beta.signal_coeffs(spec, i)
    base = 2.0 * np.pi * beta.freqs[i] * t
    h = np.zeros_like(t)
    for j in range(1, spec.k2 + 1):
        h += coeffs[j - 1, 0] * np.cos(j * base) + coeffs[j - 1, 1] * np.sin(j * base)
    return h


def trend_values(t, spec: ModelSpec, beta: BetaVector, stats: SpanStats):
    """Evaluate the polynomial trend p(t) alone (zero when k3 = -1)."""
    t = np.asarray(t, dtype=float)
    if spec.k3 < 0:
        return np.zeros_like(t)
    tt = scaled_time(t, stats)
    m = beta.trend_coeffs(spec)
    return polyval(tt, m)


def trend_ranges(spec: ModelSpec, beta: BetaVector) -> np.ndarray:
    """Full range of variation of each trend term over the span.

    With T in [-1, 1], the term M_k T^k spans 2|M_k| for odd k and
    |M_k| for even k (including the constant).
    """
    m = beta.trend_coeffs(spec)
    out = np.abs(m).astype(float)
    out[1::2] *= 2.0
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


def summarize_signals(spec: ModelSpec, beta: BetaVector, stats: SpanStats) -> SignalSummary:
    """Derive periods, amplitudes and extremum epochs from a parameter
    vector.

    Each signal is scanned densely over one period starting at the
    first observation time; extrema are then sharpened with a local
    parabola fit.  The amplitude is the peak-to-peak range of the
    signal component.
    """
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
