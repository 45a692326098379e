"""Joint multi-signal period search on unevenly sampled time series.

The core idea: fit every candidate combination of signal frequencies
jointly, together with all harmonic amplitudes and a polynomial trend,
instead of extracting signals one at a time.  A coarse scan over
frequency tuples is followed by a dense windowed scan, a
variable-projection polish of the frequencies, residual-bootstrap
uncertainties, Fisher tests between nested model shapes, and
out-of-sample prediction checks.  A classical Lomb-Scargle
pre-whitening baseline is included for comparison.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, DcmError, UnstableSearchError
from .timeseries import TimeSeries, SpanStats, load_series, write_series, span_stats
from .model import (ModelSpec, BetaVector, SignalReport, SignalSummary,
                    design_matrix, eval_model, signal_values, trend_values,
                    trend_ranges, summarize_signals, param_names)
from .linfit import FitResult, RANK_RCOND, solve_linear, evaluate_z
from .gridsearch import (SearchConfig, Slice, Periodogram, long_search,
                         short_search, periodogram_slice)
from .refine import (RefinedModel, BootstrapReport, refine, bootstrap,
                     diagnose_stability, FLAG_INTERSECTING, FLAG_DISPERSING,
                     FLAG_LEAKING)
from .pipeline import AnalysisOptions, DcmAnalysis, analyze
from .selection import (GAMMA_F, QF_FLOOR, ModelScore, FisherComparison,
                        fisher_test, LadderReport, model_ladder,
                        NoSignalReport, no_signal_test, PredictionReport,
                        prediction_test, predicted_mean)
from .dft import lomb_scargle, detrend, prewhiten, PrewhitenResult, default_grid
from .simulate import (MODELS, SimulationSpec, ModelTruth, simulate,
                       model_truth, true_beta, default_filename)

__all__ = [
    "__version__",
    "DcmError", "DataError", "ConfigError", "UnstableSearchError",
    "TimeSeries", "SpanStats", "load_series", "write_series", "span_stats",
    "ModelSpec", "BetaVector", "SignalReport", "SignalSummary",
    "design_matrix", "eval_model", "signal_values", "trend_values",
    "trend_ranges", "summarize_signals", "param_names",
    "FitResult", "RANK_RCOND", "solve_linear", "evaluate_z",
    "SearchConfig", "Slice", "Periodogram", "long_search", "short_search",
    "periodogram_slice",
    "RefinedModel", "BootstrapReport", "refine", "bootstrap",
    "diagnose_stability", "FLAG_INTERSECTING", "FLAG_DISPERSING", "FLAG_LEAKING",
    "AnalysisOptions", "DcmAnalysis", "analyze",
    "GAMMA_F", "QF_FLOOR", "ModelScore", "FisherComparison", "fisher_test",
    "LadderReport", "model_ladder", "NoSignalReport", "no_signal_test",
    "PredictionReport", "prediction_test", "predicted_mean",
    "lomb_scargle", "detrend", "prewhiten", "PrewhitenResult", "default_grid",
    "MODELS", "SimulationSpec", "ModelTruth", "simulate", "model_truth",
    "true_beta", "default_filename",
]
