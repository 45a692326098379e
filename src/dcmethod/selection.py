"""Nested model comparison, ladders, and prediction tests.

Two fits of the same data are compared with the Fisher statistic

    F = (s1/s2 - 1) (n - eta2 - 1) / (eta2 - eta1),

where s is chi-square (weighted fits) or the residual sum of squares
(unweighted), model 1 is the simpler one, and eta counts free
parameters.  Under H0 (the extra parameters are useless) F follows the
F distribution with (eta2 - eta1, n - eta2) degrees of freedom; H0 is
rejected when the upper tail probability QF falls below ``GAMMA_F``.

QF is reported no smaller than ``QF_FLOOR``; a non-positive F means
the complex model fits worse and QF is 1 by convention.  Two models
with equal eta cannot be F-tested and are compared on the statistic
alone, which is marked in the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError
from .gridsearch import SearchConfig
from .linfit import row_sigma, solve_linear
from .model import BetaVector, ModelSpec, eval_model
from .pipeline import AnalysisOptions, DcmAnalysis, analyze
from .timeseries import SpanStats, TimeSeries

__all__ = [
    "GAMMA_F", "QF_FLOOR", "ModelScore", "FisherComparison", "fisher_test",
    "LadderReport", "model_ladder",
    "NoSignalReport", "no_signal_test",
    "PredictionReport", "prediction_test", "predicted_mean",
]

GAMMA_F = 1e-3
QF_FLOOR = 1e-16


@dataclass(frozen=True)
class ModelScore:
    """The three numbers a Fisher comparison needs from one fit."""

    label: str
    eta: int
    stat: float


def score_of(analysis: DcmAnalysis) -> ModelScore:
    return ModelScore(analysis.spec.label, analysis.spec.eta, analysis.stat)


@dataclass(frozen=True)
class FisherComparison:
    """One simple-versus-complex verdict.

    ``verdict`` is ``reject-H0`` or ``retain-H0`` for a proper F test
    and ``not-applicable`` when eta1 = eta2, in which case
    ``f_value``/``q_f`` are None and ``preferred`` names the lower
    statistic.
    """

    simple: str
    complex: str
    eta1: int
    eta2: int
    stat1: float
    stat2: float
    f_value: float | None
    q_f: float | None
    nu1: int | None
    nu2: int | None
    preferred: str
    verdict: str


def fisher_test(simple: ModelScore, complex: ModelScore, n: int,
                gamma: float = GAMMA_F) -> FisherComparison:
    """Compare a simpler nested model against a more complex one.

    Raises
    ------
    ConfigError
        If the "simple" model has more parameters than the complex one,
        or n leaves no residual degrees of freedom.
    """
    eta1, eta2 = simple.eta, complex.eta
    if eta1 > eta2:
        raise ConfigError("simple model must not have more parameters")
    if eta1 == eta2:
        preferred = simple.label if simple.stat <= complex.stat else complex.label
        return FisherComparison(
            simple=simple.label, complex=complex.label, eta1=eta1, eta2=eta2,
            stat1=simple.stat, stat2=complex.stat, f_value=None, q_f=None,
            nu1=None, nu2=None, preferred=preferred, verdict="not-applicable",
        )
    if n - eta2 - 1 <= 0:
        raise ConfigError(f"need n > eta2 + 1 = {eta2 + 1}, have n = {n}")
    nu1 = eta2 - eta1
    nu2 = n - eta2
    if complex.stat <= 0.0:
        f_value = np.inf if simple.stat > 0.0 else 0.0
    else:
        f_value = (simple.stat / complex.stat - 1.0) * (n - eta2 - 1) / nu1
    if f_value <= 0.0:
        q_f = 1.0
    elif np.isinf(f_value):
        q_f = QF_FLOOR
    else:
        # SciPy is loaded here, on the first finite F, so that the verbs
        # without an F test start without it.
        from scipy.special import fdtrc
        q_f = max(float(fdtrc(nu1, nu2, f_value)), QF_FLOOR)
    reject = q_f < gamma
    return FisherComparison(
        simple=simple.label, complex=complex.label, eta1=eta1, eta2=eta2,
        stat1=simple.stat, stat2=complex.stat, f_value=float(f_value),
        q_f=q_f, nu1=nu1, nu2=nu2,
        preferred=complex.label if reject else simple.label,
        verdict="reject-H0" if reject else "retain-H0",
    )


def _fisher_pair(a: ModelScore, b: ModelScore, n: int, gamma: float) -> FisherComparison:
    """``fisher_test`` with the score of fewer parameters as the simple
    model; on a tie ``a`` is."""
    if b.eta < a.eta:
        a, b = b, a
    return fisher_test(a, b, n, gamma)


def _distinct(specs) -> list[ModelSpec]:
    """``specs`` as a list; ConfigError when a shape repeats."""
    specs = list(specs)
    for i, spec in enumerate(specs):
        if spec in specs[:i]:
            raise ConfigError(f"duplicate model shape {spec.label}")
    return specs


@dataclass
class LadderReport:
    """All pairwise comparisons across a set of model shapes.

    ``entries`` holds the analysis of each shape, in the order given.
    ``best`` lists the simplest models never rejected against any more
    complex alternative; more than one entry sets ``ambiguous``.
    """

    entries: list[DcmAnalysis]
    comparisons: list[FisherComparison]
    best: list[str]
    ambiguous: bool


def model_ladder(ts: TimeSeries, specs, cfg: SearchConfig,
                 opts: AnalysisOptions = AnalysisOptions(),
                 gamma: float = GAMMA_F, workers: int = 1) -> LadderReport:
    """Fit each model shape and cross-compare all pairs.

    Every spec runs the full pipeline (scans, polish, bootstrap for the
    instability flags).  Pairs with equal eta fall back to comparing
    the statistic.  A single spec is vacuously best; a repeated one is
    a ConfigError.
    """
    specs = _distinct(specs)
    if not specs:
        raise ConfigError("a ladder needs at least one model shape")
    entries = [analyze(ts, spec, cfg, opts, workers) for spec in specs]
    comparisons = [_fisher_pair(a, b, ts.n, gamma)
                   for a, b in combinations(map(score_of, entries), 2)]
    rejected = {c.simple for c in comparisons if c.verdict == "reject-H0"}
    survivors = [s for s in specs if s.label not in rejected]
    if survivors:
        best_eta = min(s.eta for s in survivors)
        best = [s.label for s in survivors if s.eta == best_eta]
    else:
        best = []
    return LadderReport(entries=entries, comparisons=comparisons, best=best,
                        ambiguous=len(best) != 1)


@dataclass
class NoSignalReport:
    """Signal model versus pure polynomials of increasing order.

    ``first_signal_qf`` is the weakest (largest) QF among the
    comparisons where a polynomial is the simpler model: the critical
    level at which the signal's existence is established.
    """

    signal: ModelScore
    polynomials: list[ModelScore]
    comparisons: list[FisherComparison]
    first_signal_qf: float | None
    signal_preferred: bool


def no_signal_test(ts: TimeSeries, signal: ModelScore | DcmAnalysis,
                   max_trend_order: int, weighting: str | None = None,
                   gamma: float = GAMMA_F) -> NoSignalReport:
    """Test a fitted signal model against trend-only alternatives.

    Polynomials with fewer parameters than the signal model act as the
    simple model; higher orders act as the complex one; an equal count
    falls back to the statistic comparison.
    """
    if isinstance(signal, DcmAnalysis):
        signal = score_of(signal)
    if max_trend_order < 0:
        raise ConfigError("max_trend_order must be >= 0")
    polynomials = []
    comparisons = []
    worst_qf = None
    preferred = True
    for k in range(max_trend_order + 1):
        spec = ModelSpec(0, 1, k)
        fit = solve_linear(ts, spec, np.empty(0), weighting)
        poly = ModelScore(spec.label, spec.eta, fit.stat)
        polynomials.append(poly)
        cmp = _fisher_pair(poly, signal, ts.n, gamma)
        comparisons.append(cmp)
        if cmp.simple == poly.label and cmp.q_f is not None:
            worst_qf = cmp.q_f if worst_qf is None else max(worst_qf, cmp.q_f)
        if cmp.preferred != signal.label:
            preferred = False
    return NoSignalReport(
        signal=signal, polynomials=polynomials, comparisons=comparisons,
        first_signal_qf=worst_qf, signal_preferred=preferred,
    )


@dataclass
class PredictionReport:
    """Out-of-sample check of one model shape.

    The model is fitted on the predictive subset only; its trend
    variable keeps the predictive-span midpoint and width when
    extrapolated, so the polynomial genuinely extrapolates rather than
    being rescaled.  ``z_pred`` is the misfit on the withheld points
    and ``m_pred`` the mean of the predicted curve (None without a
    window or withheld data).  ``analysis`` is the fit on the
    predictive subset: its ``spec.label``, ``n`` and ``z`` name the
    shape, count the fitted points and give the fit's misfit.
    """

    n_pred: int
    z_pred: float | None
    m_pred: float | None
    predicted: np.ndarray
    residuals_pred: np.ndarray | None
    analysis: DcmAnalysis


def predicted_mean(spec: ModelSpec, beta: BetaVector, stats: SpanStats,
                   window: tuple[float, float], n_points: int = 1000) -> float:
    """Mean of the model over ``n_points`` evenly spaced times in
    ``window``, with the fit-time trend scaling frozen."""
    t_a, t_b = window
    if not (t_b > t_a) or n_points < 1:
        raise ConfigError("need t_b > t_a and n_points >= 1")
    tgrid = np.linspace(t_a, t_b, n_points)
    return float(np.mean(eval_model(tgrid, spec, beta, stats)))


def prediction_test(ts: TimeSeries, split, specs, cfg: SearchConfig,
                    opts: AnalysisOptions = AnalysisOptions(),
                    window: tuple[float, float] | None = None,
                    window_points: int = 1000,
                    workers: int = 1) -> list[PredictionReport]:
    """Fit on the early part of a series, judge on the rest.

    Parameters
    ----------
    split : int or float
        An int keeps the first ``split`` points for fitting; a float is
        a time cut (t <= split fits).  Everything else is predicted.
        With no withheld points a ``window`` must be given and only the
        predicted mean is reported.
    window : (t_a, t_b), optional
        When given, ``m_pred`` is the model mean over this window at
        ``window_points`` even samples instead of over the withheld
        times.

    A repeated shape in ``specs`` is a ConfigError.
    """
    specs = _distinct(specs)
    if isinstance(split, (bool, np.bool_)):
        raise ConfigError("split must be an int count or a float time cut")
    if isinstance(split, (int, np.integer)):
        k = int(split)
    else:
        k = int(np.searchsorted(ts.t, float(split), side="right"))
    if k < 2:
        raise ConfigError("predictive subset needs at least 2 points")
    if k > ts.n:
        raise ConfigError(f"split {k} exceeds series length {ts.n}")
    if k == ts.n and window is None:
        raise ConfigError("no withheld points: provide a prediction window")

    sig = ts.sigma
    ts_fit = TimeSeries(ts.t[:k], ts.y[:k], sig[:k] if sig is not None else None)
    t_pred = ts.t[k:]
    y_pred = ts.y[k:]

    reports = []
    for spec in specs:
        analysis = analyze(ts_fit, spec, cfg, opts, workers)
        beta = analysis.refined.beta
        if t_pred.size:
            g_pred = eval_model(t_pred, spec, beta, analysis.stats)
            resid = y_pred - g_pred
            sigma = row_sigma(ts, analysis.weighting)
            resid_w = resid if sigma is None else resid / sigma[k:]
            z_pred = float(np.sqrt(np.mean(resid_w ** 2)))
        else:
            g_pred = np.empty(0)
            resid = None
            z_pred = None
        if window is not None:
            m_pred = predicted_mean(spec, beta, analysis.stats, window, window_points)
        elif t_pred.size:
            m_pred = float(np.mean(g_pred))
        else:
            m_pred = None
        reports.append(PredictionReport(
            n_pred=int(t_pred.size), z_pred=z_pred, m_pred=m_pred,
            predicted=g_pred, residuals_pred=resid, analysis=analysis,
        ))
    return reports
