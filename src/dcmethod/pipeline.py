"""End-to-end analysis of one model shape on one series.

Chains the stages: long grid scan, windowed short scan,
variable-projection polish, signal summaries, residual bootstrap.  Every
model shape runs the same sequence; a pure trend (k1 = 0) only skips
the scans, and its polish starts from the empty frequency tuple and
stops at once at the linear fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .gridsearch import Periodogram, SearchConfig, long_search, short_search
from .model import ModelSpec, SignalSummary, summarize_signals
from .refine import BootstrapReport, RefinedModel, bootstrap, refine
from .timeseries import SpanStats, TimeSeries, span_stats

# Not called here: the benchmark's call-site tracer (bench/tracer.py)
# wraps this name on this module, so it stays importable from it.
from .linfit import solve_linear  # noqa: F401

__all__ = ["AnalysisOptions", "DcmAnalysis", "analyze"]


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs that do not alter the searched frequency set.  The
    weighting is the series': chi-square exactly when it has a sigma
    column."""

    n_boot: int = 100
    seed: int = 0
    refine_rounds: bool = True

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

    The scans run only for k1 >= 1; every shape is then polished by
    ``refine``, from the short-stage best tuple or, for a pure trend,
    from the empty tuple.  ``cfg`` may be None only for pure trend
    models (k1 = 0), which have no frequencies to search.
    """
    stats = span_stats(ts)
    long = short = None
    start, grids = np.empty(0), []
    if spec.k1:
        if cfg is None:
            raise ConfigError("a search range is required when k1 >= 1")
        long = long_search(ts, spec, cfg, workers)
        short = short_search(ts, spec, cfg, long.best, workers)
        start, grids = short.best, short.grids
    refined = refine(ts, spec, start)

    summary = summarize_signals(spec, refined.beta, stats)
    boot = None
    if opts.n_boot >= 2:
        boot = bootstrap(ts, spec, cfg, refined, grids, opts.n_boot,
                         opts.seed, refine_rounds=opts.refine_rounds, workers=workers)
    return DcmAnalysis(
        spec=spec, stats=stats, n=ts.n,
        weighting="chi-square" if ts.weighted else "unweighted",
        long=long, short=short, refined=refined, summary=summary, boot=boot,
    )
