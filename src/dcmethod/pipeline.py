"""End-to-end analysis of one model shape on one series.

Chains the stages: long grid scan, windowed short scan,
variable-projection polish, signal summaries, residual bootstrap.  Pure
trend models skip the scans and go straight to the linear fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gridsearch import Periodogram, SearchConfig, long_search, short_search
from .linfit import solve_linear, weighting_mode
from .model import ModelSpec, SignalSummary, summarize_signals
from .refine import BootstrapReport, RefinedModel, bootstrap, refine
from .timeseries import SpanStats, TimeSeries, span_stats

__all__ = ["AnalysisOptions", "DcmAnalysis", "analyze"]


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs that do not alter the searched frequency set."""

    n_boot: int = 100
    seed: int = 0
    refine_rounds: bool = True
    weighting: str | None = None

    def __post_init__(self):
        if self.n_boot < 0:
            raise ConfigError("n_boot must be >= 0")


@dataclass
class DcmAnalysis:
    """Everything produced for one model shape."""

    spec: ModelSpec
    stats: SpanStats
    weighting: str
    n: int
    long: Periodogram | None
    short: Periodogram | None
    refined: RefinedModel
    summary: SignalSummary
    boot: BootstrapReport | None

    @property
    def z(self) -> float:
        return self.refined.z

    @property
    def stat(self) -> float:
        return self.refined.stat

    @property
    def flags(self) -> list[str]:
        return list(self.boot.flags) if self.boot is not None else []


def analyze(ts: TimeSeries, spec: ModelSpec, cfg: SearchConfig | None,
            opts: AnalysisOptions = AnalysisOptions(), workers: int = 1) -> DcmAnalysis:
    """Run the full pipeline for one model shape.

    ``cfg`` may be None only for pure trend models (k1 = 0), which have
    no frequencies to search.
    """
    stats = span_stats(ts)
    mode = weighting_mode(ts, opts.weighting)
    if spec.k1 == 0:
        fit = solve_linear(ts, spec, np.empty(0), stats, mode)
        refined = RefinedModel(
            beta=fit.beta, residuals=fit.residuals, r_sum=fit.r_sum,
            chi2=fit.chi2, z=fit.z, z_initial=fit.z, iterations=0,
            converged=True,
        )
        long = short = None
        grids = []
    else:
        if cfg is None:
            raise ConfigError("a search range is required when k1 >= 1")
        long = long_search(ts, spec, cfg, stats, mode, workers)
        short = short_search(ts, spec, cfg, long.best, stats, mode, workers)
        fit = solve_linear(ts, spec, short.best, stats, mode)
        refined = refine(ts, spec, fit.beta, stats, mode)
        grids = short.grids

    summary = summarize_signals(spec, refined.beta, stats)
    boot = None
    if opts.n_boot >= 2:
        # a pure trend has no frequencies: the placeholder range is never read
        boot_cfg = cfg if cfg is not None else SearchConfig(1.0, 2.0)
        boot = bootstrap(ts, spec, boot_cfg, refined, grids, opts.n_boot,
                         opts.seed, stats, mode, opts.refine_rounds, workers)
    return DcmAnalysis(
        spec=spec, stats=stats, weighting=mode, n=ts.n,
        long=long, short=short, refined=refined, summary=summary, boot=boot,
    )
