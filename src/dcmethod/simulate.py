"""Synthetic test series with known ground truth.

Seven standard generator models over a unit time span: combinations of
one or two cosine signals (single or double harmonic) and a constant,
linear or parabolic trend.  Times are uniform draws on [0, 1], sorted,
with the smallest pushed to 0 and the largest to 1 so the span is
exactly one.  All signals have peak-to-peak amplitude 2, so the noise
level for a requested signal-to-noise ratio is sigma = 1/SN.

The generator evaluates its own closed form expressions, independent of
the model evaluation code, which keeps round trip tests honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .errors import ConfigError
from .model import BetaVector, ModelSpec, SignalSummary, summarize_signals
from .timeseries import SpanStats, TimeSeries

__all__ = ["Harmonic", "SignalDef", "ModelDef", "MODELS", "SimulationSpec",
           "ModelTruth", "simulate", "model_truth", "default_filename"]


@dataclass(frozen=True)
class Harmonic:
    """One term c * cos(2 pi j (t - delta) / period)."""

    j: int
    c: float
    delta: float


@dataclass(frozen=True)
class SignalDef:
    period: float
    harmonics: tuple[Harmonic, ...]


@dataclass(frozen=True)
class ModelDef:
    """A generator: its shape, signal content, trend and the period
    range conventionally searched when analysing its output."""

    spec: ModelSpec
    signals: tuple[SignalDef, ...]
    trend: tuple[float, ...]
    period_range: tuple[float, float]


def _one(period, c, delta):
    return SignalDef(period, (Harmonic(1, c, delta),))


MODELS: dict[int, ModelDef] = {
    1: ModelDef(ModelSpec(1, 1, 0), (_one(1.9, 1.0, 0.4),), (1.0,),
                (0.63, 5.70)),
    2: ModelDef(ModelSpec(1, 1, 2), (_one(1.9, 1.0, 0.4),), (1.0, 0.25, 0.5),
                (0.63, 4.70)),
    3: ModelDef(ModelSpec(2, 1, 0), (_one(0.16, 1.0, 0.03), _one(0.17, 1.0, 0.05)),
                (1.0,), (0.053, 0.480)),
    4: ModelDef(ModelSpec(2, 1, 2), (_one(0.16, 1.0, 0.03), _one(0.17, 1.0, 0.05)),
                (1.0, 0.25, 0.5), (0.053, 0.480)),
    5: ModelDef(ModelSpec(2, 1, 2), (_one(1.4, 1.0, 0.4), _one(1.9, 1.0, 0.6)),
                (1.0, 0.25, 0.5), (0.47, 4.20)),
    6: ModelDef(ModelSpec(1, 2, 0),
                (SignalDef(0.16, (Harmonic(1, 0.3655, 0.0),
                                  Harmonic(2, 0.7310, 0.3))),),
                (0.0,), (0.053, 0.480)),
    7: ModelDef(ModelSpec(2, 2, 2),
                (SignalDef(1.2, (Harmonic(1, 0.3687, 0.0),
                                 Harmonic(2, 0.7374, 0.4))),
                 SignalDef(1.4, (Harmonic(1, 0.3708, 0.0),
                                 Harmonic(2, 0.7416, 0.6)))),
                (1.0, 0.25, 0.5), (0.4, 3.6)),
}

# Span statistics of every simulated series: unit span pinned to [0, 1].
_SIM_STATS = SpanStats(t_mid=0.5, delta_t=1.0, f0=1.0, y_mean=0.0, y_std=0.0)


@dataclass(frozen=True)
class SimulationSpec:
    """What to generate: which model, how many points, how clean."""

    model_id: int
    n: int
    sn: float
    seed: int

    def __post_init__(self):
        if self.model_id not in MODELS:
            raise ConfigError(f"unknown model id {self.model_id}")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if not self.sn > 0.0:
            raise ConfigError("sn must be > 0")


@dataclass
class ModelTruth:
    """Ground truth of a generator in fitted-parameter form."""

    spec: ModelSpec
    beta: BetaVector
    summary: SignalSummary
    period_range: tuple[float, float]
    sigma: float


def _closed_form(mdef: ModelDef, t: np.ndarray) -> np.ndarray:
    g = np.zeros_like(t)
    for sig in mdef.signals:
        for h in sig.harmonics:
            g += h.c * np.cos(2.0 * np.pi * h.j * (t - h.delta) / sig.period)
    big_t = 2.0 * (t - 0.5)
    for k, m in enumerate(mdef.trend):
        g += m * big_t ** k
    return g


def simulate(sim: SimulationSpec) -> TimeSeries:
    """Generate one series.

    Times are drawn first, then the noise, from a single generator
    seeded with ``sim.seed``; equal specs give byte-identical series.
    An infinite signal-to-noise ratio yields the noise-free curve with
    no sigma column.
    """
    mdef = MODELS[sim.model_id]
    rng = default_rng(sim.seed)
    t = np.sort(rng.random(sim.n))
    t[0] = 0.0
    t[-1] = 1.0
    g = _closed_form(mdef, t)
    if math.isinf(sim.sn):
        return TimeSeries(t, g)
    sigma = 1.0 / sim.sn
    y = g + rng.normal(0.0, sigma, sim.n)
    return TimeSeries(t, y, np.full(sim.n, sigma))


def true_beta(model_id: int) -> BetaVector:
    """The generator expressed in cos/sin coefficient form."""
    mdef = MODELS[model_id]
    spec = mdef.spec
    freqs = np.array([1.0 / s.period for s in mdef.signals])
    linear = np.zeros(spec.n_linear)
    for i, sig in enumerate(mdef.signals):
        for h in sig.harmonics:
            phi = 2.0 * np.pi * h.j * freqs[i] * h.delta
            off = i * 2 * spec.k2 + 2 * (h.j - 1)
            linear[off] = h.c * np.cos(phi)
            linear[off + 1] = h.c * np.sin(phi)
    linear[2 * spec.k1 * spec.k2:] = mdef.trend
    return BetaVector(freqs, linear)


def model_truth(sim: SimulationSpec) -> ModelTruth:
    """Ground truth parameters, including derived epochs and amplitudes."""
    mdef = MODELS[sim.model_id]
    beta = true_beta(sim.model_id)
    summary = summarize_signals(mdef.spec, beta, _SIM_STATS)
    sigma = 0.0 if math.isinf(sim.sn) else 1.0 / sim.sn
    return ModelTruth(
        spec=mdef.spec, beta=beta, summary=summary,
        period_range=mdef.period_range, sigma=sigma,
    )


def default_filename(sim: SimulationSpec) -> str:
    sn = sim.sn
    sn_txt = str(int(sn)) if float(sn).is_integer() else f"{sn:g}"
    return f"Model{sim.model_id}n{sim.n}SN{sn_txt}.dat"
