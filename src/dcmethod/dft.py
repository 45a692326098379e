"""Classical periodogram baseline with iterative pre-whitening.

The periodogram follows the Horne & Baliunas (1986) normalisation of
the Lomb-Scargle statistic: the time shift tau makes it phase
invariant and powers are in units of the series variance.  One signal
is extracted per pass; each pass fits a single sine (plus the trend on
the first pass, a constant afterwards) at the peak frequency and the
next pass works on the residuals.

This estimator sees one frequency at a time, which is exactly the
failure mode the joint grid search is built to avoid: closely spaced
signals blend into one intermediate peak, and harmonics of a
non-sinusoidal signal split into separate detections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .gridsearch import SearchConfig
from .linfit import fit_columns
from .model import ModelSpec, design_matrix
from .timeseries import TimeSeries, span_stats

__all__ = ["SinePass", "PrewhitenResult", "lomb_scargle", "default_grid",
           "detrend", "prewhiten"]


def lomb_scargle(t, y, freqs) -> np.ndarray:
    """Normalised Lomb-Scargle power at the given frequencies.

    The mean is subtracted internally and powers are normalised by the
    sample variance, so a pure noiseless sinusoid peaks near n/2.

    Raises
    ------
    DataError
        If the series has zero variance (power undefined).
    ConfigError
        On non-positive frequencies.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if (freqs <= 0.0).any():
        raise ConfigError("frequencies must be > 0")
    yc = y - y.mean()
    var = float(yc @ yc) / (t.size - 1)
    if var <= 0.0:
        raise DataError("constant series: periodogram undefined")
    omega = 2.0 * np.pi * freqs
    power = np.empty(freqs.size)
    for i, w in enumerate(omega):
        wt = w * t
        tau = np.arctan2(np.sin(2.0 * wt).sum(), np.cos(2.0 * wt).sum()) / (2.0 * w)
        arg = w * (t - tau)
        c = np.cos(arg)
        s = np.sin(arg)
        power[i] = ((yc @ c) ** 2 / (c @ c) + (yc @ s) ** 2 / (s @ s)) / (2.0 * var)
    return power


def default_grid(cfg: SearchConfig, f0: float, oversample: float = 10.0) -> np.ndarray:
    """Even frequency grid over the search range with spacing
    f0/oversample (ten points per natural peak width by default)."""
    if oversample <= 0.0:
        raise ConfigError("oversample must be > 0")
    step = f0 / oversample
    count = int(np.floor((cfg.f_max - cfg.f_min) / step)) + 1
    return cfg.f_min + step * np.arange(count)


def detrend(ts: TimeSeries, k3: int):
    """Least squares polynomial over the scaled span variable.

    Returns (detrended values, trend coefficients M_0..M_k3).
    """
    if k3 < 0:
        raise ConfigError("detrending needs k3 >= 0")
    spec = ModelSpec(0, 1, k3)
    cols = design_matrix(ts.t, spec, np.empty(0), span_stats(ts))
    coeffs, fitted, resid = fit_columns(cols, ts.y)
    return resid, coeffs


@dataclass
class SinePass:
    """One extracted sinusoid.

    ``cos_amp``/``sin_amp`` are the fitted coefficients of
    cos(2 pi f t) and sin(2 pi f t); ``amplitude`` is the peak-to-peak
    value 2 sqrt(cos_amp^2 + sin_amp^2).
    """

    frequency: float
    period: float
    peak_power: float
    freq_grid: np.ndarray
    power: np.ndarray
    cos_amp: float
    sin_amp: float
    residuals: np.ndarray

    @property
    def amplitude(self) -> float:
        return 2.0 * float(np.hypot(self.cos_amp, self.sin_amp))


@dataclass
class PrewhitenResult:
    passes: list[SinePass]
    trend: np.ndarray

    @property
    def frequencies(self) -> list[float]:
        return [p.frequency for p in self.passes]

    @property
    def periods(self) -> list[float]:
        return [p.period for p in self.passes]


def prewhiten(ts: TimeSeries, n_signals: int, cfg: SearchConfig,
              k3: int = 0, oversample: float = 10.0,
              freq_grid=None) -> PrewhitenResult:
    """Extract ``n_signals`` sinusoids one per pass.

    Pass 1 detrends with a polynomial of order ``k3``, locates the peak
    of the periodogram of the detrended values, then jointly refits
    sine plus trend and keeps those residuals.  Later passes repeat on
    the residuals with a constant instead of the trend.  The peak is
    the grid argmax (ties resolved to the lowest frequency); no
    interpolation is applied, so the frequency resolution is the grid
    spacing.
    """
    if n_signals < 1:
        raise ConfigError("n_signals must be >= 1")
    stats = span_stats(ts)
    if freq_grid is None:
        freq_grid = default_grid(cfg, stats.f0, oversample)
    else:
        freq_grid = np.asarray(freq_grid, dtype=float)

    passes = []
    trend = None
    work = ts.y
    for k in range(n_signals):
        if k == 0:
            probe, _ = detrend(ts, k3)
            fit_spec = ModelSpec(1, 1, k3)
        else:
            probe = work
            fit_spec = ModelSpec(1, 1, 0)
        power = lomb_scargle(ts.t, probe, freq_grid)
        peak = int(np.argmax(power))
        f_best = float(freq_grid[peak])
        cols = design_matrix(ts.t, fit_spec, np.array([f_best]), stats)
        coeffs, _, resid = fit_columns(cols, work)
        if k == 0:
            trend = coeffs[2:].copy()
        passes.append(SinePass(
            frequency=f_best, period=1.0 / f_best, peak_power=float(power[peak]),
            freq_grid=freq_grid, power=power,
            cos_amp=float(coeffs[0]), sin_amp=float(coeffs[1]),
            residuals=resid.copy(),
        ))
        work = resid
    return PrewhitenResult(passes=passes, trend=trend)
