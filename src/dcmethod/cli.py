"""Command line driver.

Verbs:

    dcm run       full analysis of one model shape
    dcm dft       periodogram baseline with pre-whitening
    dcm ladder    fit several shapes and cross-compare
    dcm predict   fit early points, judge on withheld ones
    dcm simulate  generate a synthetic series with known truth

Every verb reads a control file of ``key = value`` lines (``#`` starts
a comment line).  Relative paths inside a control file resolve against
the control file's directory.  Exit codes: 0 success, 1 unstable
result (with --strict) or impossible search, 2 data or I/O problem,
3 configuration problem.

Outputs are deterministic: no timestamps, keys sorted, floats written
with shortest round-trip precision.  The worker count never changes
any output byte.  A verb makes its output directory only when it
writes its first file, so a failed run leaves none behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .dft import prewhiten
from .errors import ConfigError, DataError, DcmError
from .gridsearch import SearchConfig
from .model import ModelSpec, eval_model, param_names, signal_values, trend_values
from .pipeline import AnalysisOptions, analyze
from .selection import model_ladder, prediction_test
from .simulate import SimulationSpec, default_filename, model_truth, simulate
from .timeseries import TimeSeries, load_series, write_series

__all__ = ["main"]

_CURVE_POINTS = 2001


class Control:
    """Parsed control file with access tracking for unknown-key errors."""

    def __init__(self, path):
        self.path = path
        self.dir = os.path.dirname(os.path.abspath(path))
        self.entries = {}
        self.used = set()
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot open control file: {exc}") from exc
        with fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                if "=" not in text:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {text!r}")
                key, _, value = text.partition("=")
                key = key.strip().lower()
                if key in self.entries:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                self.entries[key] = (value.strip(), lineno)

    def get(self, key, conv=str, default=None, required=False):
        if key not in self.entries:
            if required:
                raise ConfigError(f"{self.path}: missing required key {key!r}")
            self.used.add(key)
            return default
        self.used.add(key)
        try:
            return conv(self.entries[key][0])
        except (TypeError, ValueError, ConfigError) as exc:
            raise self._bad(key, exc) from None

    def _bad(self, key, exc) -> ConfigError:
        return ConfigError(
            f"{self.path}:{self.entries[key][1]}: bad value for {key!r}: {exc}")

    def build(self, keys, make, *args, **kw):
        """``make(*args, **kw)``, a constructor of values read from
        ``keys``: a ConfigError it raises names the lines of the keys
        this file gives."""
        try:
            return make(*args, **kw)
        except ConfigError as exc:
            given = [k for k in keys if k in self.entries]
            if len(given) == 1:
                raise self._bad(given[0], exc) from None
            where = ", ".join(f"{k!r} (line {self.entries[k][1]})" for k in given)
            raise ConfigError(f"{self.path}: {where}: {exc}") from None

    def path_of(self, key, default=None, required=False):
        raw = self.get(key, str, default=default, required=required)
        if raw is None:
            return None
        return raw if os.path.isabs(raw) else os.path.join(self.dir, raw)

    def reject_extras(self):
        extras = sorted(set(self.entries) - self.used)
        if extras:
            locs = ", ".join(
                f"{k!r} (line {self.entries[k][1]})" for k in extras)
            raise ConfigError(f"{self.path}: unknown keys: {locs}")


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _model_list(raw: str) -> list[ModelSpec]:
    specs = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        nums = [p.strip() for p in part.split(",")]
        if len(nums) != 3:
            raise ValueError(f"model shape needs three integers, got {part!r}")
        spec = ModelSpec(int(nums[0]), int(nums[1]), int(nums[2]))
        if spec in specs:
            raise ValueError(f"duplicate model shape {spec.label}")
        specs.append(spec)
    if not specs:
        raise ValueError("empty model list")
    return specs


def _window(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 't_a, t_b', got {raw!r}")
    t_a, t_b = float(parts[0]), float(parts[1])
    if not t_b > t_a:
        raise ValueError(f"need t_b > t_a, got {raw!r}")
    return t_a, t_b


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {raw!r}")
    return value


def _weighting(raw: str):
    """The ``weighting`` key as the map from the loaded series to the
    one analysed, whose sigma column alone decides the weighting."""
    if raw not in ("auto", "unweighted", "chi-square"):
        raise ValueError(f"expected auto, unweighted or chi-square, got {raw!r}")

    def weigh(ts: TimeSeries) -> TimeSeries:
        if raw == "chi-square" and not ts.weighted:
            raise ConfigError("chi-square weighting needs a sigma column")
        return TimeSeries(ts.t, ts.y) if raw == "unweighted" else ts
    return weigh


_SEARCH_KEYS = ("pmin", "pmax", "fmin", "fmax", "nlong", "nshort", "halfwidth")


def _search_config(ctl: Control, required: bool = True) -> SearchConfig | None:
    """The search range and grid sizes; None when the control file gives
    no range and ``required`` is False."""
    p_min = ctl.get("pmin", float)
    p_max = ctl.get("pmax", float)
    f_min = ctl.get("fmin", float)
    f_max = ctl.get("fmax", float)
    kw = dict(
        n_long=ctl.get("nlong", int, 200),
        n_short=ctl.get("nshort", int, 200),
        half_width_frac=ctl.get("halfwidth", float, 0.05),
    )
    have_p = p_min is not None or p_max is not None
    have_f = f_min is not None or f_max is not None
    if have_p == have_f:
        if not (have_p or required):
            return None
        raise ConfigError(
            f"{ctl.path}: give exactly one range pair, pmin/pmax or fmin/fmax")
    if have_p:
        if p_min is None or p_max is None:
            raise ConfigError(f"{ctl.path}: pmin and pmax belong together")
        return ctl.build(_SEARCH_KEYS, SearchConfig.from_periods, p_min, p_max, **kw)
    if f_min is None or f_max is None:
        raise ConfigError(f"{ctl.path}: fmin and fmax belong together")
    return ctl.build(_SEARCH_KEYS, SearchConfig, f_min=f_min, f_max=f_max, **kw)


def _seed(ctl: Control, args) -> int:
    """The control file seed unless ``--seed`` overrides it; the key is
    read either way, so it is never reported as unknown."""
    seed = ctl.get("seed", int, 0)
    return seed if args.seed is None else args.seed


def _options(ctl: Control, args, default_boot=100):
    """The analysis options, and the ``weighting`` key's map from the
    loaded series to the one analysed."""
    opts = ctl.build(
        ("seed", "nboot", "bootstrap_refine"), AnalysisOptions,
        seed=_seed(ctl, args),
        n_boot=ctl.get("nboot", int, default_boot),
        refine_rounds=ctl.get("bootstrap_refine", _to_bool, True),
    )
    return opts, ctl.get("weighting", _weighting, _weighting("auto"))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None if np.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Output:
    """The output directory of a series verb: the ``out`` key, or
    ``<control stem>.out`` beside the control file.  It is made at the
    first write, so a verb that fails before writing leaves nothing."""

    def __init__(self, ctl: Control, data: str):
        self.ctl = ctl
        self.data = data
        self.dir = ctl.path_of("out")
        if self.dir is None:
            stem = os.path.splitext(os.path.basename(ctl.path))[0]
            self.dir = os.path.join(ctl.dir, stem + ".out")

    def _path(self, name):
        os.makedirs(self.dir, exist_ok=True)
        return os.path.join(self.dir, name)

    def json(self, name, payload):
        """``payload`` with the version/control/data envelope."""
        _write_json(self._path(name), dict(
            payload, version=__version__,
            control=os.path.basename(self.ctl.path),
            data=os.path.basename(self.data)))

    def csv(self, name, names, columns, extra=None):
        header = ([f"# {extra}"] if extra else []) + [
            f"# dcmethod {__version__}",
            f"# control = {os.path.basename(self.ctl.path)}", ",".join(names)]
        with open(self._path(name), "w", encoding="utf-8") as fh:
            for line in header:
                fh.write(line + "\n")
            for row in zip(*(np.asarray(c) for c in columns)):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _series_verb(read):
    """A verb on a data series, from ``read(ctl, args)``.

    ``read`` reads the verb's own keys, the search range among them, and
    returns ``job(ts, out)``, which analyses the series, writes through
    the ``_Output`` ``out`` and returns (summary, flag label, flagged
    names).  The data path is read first, the output directory last;
    every key is read before unknown keys are rejected and the data
    loaded.  Flagged names make ``--strict`` exit 1.
    """
    def command(ctl: Control, args) -> int:
        data = ctl.path_of("data", required=True)
        job = read(ctl, args)
        out = _Output(ctl, data)
        ctl.reject_extras()
        summary, label, flagged = job(load_series(data), out)
        print(f"{args.verb}: {summary} -> {out.dir}")
        if flagged:
            print(f"{label}: " + ", ".join(flagged))
            if args.strict:
                return 1
        return 0
    return command


def _parameters(spec, beta):
    return dict(zip(param_names(spec), beta.interleaved(spec)))


def _analysis_dict(analysis):
    payload = {
        "model": {
            "label": analysis.spec.label, "k1": analysis.spec.k1,
            "k2": analysis.spec.k2, "k3": analysis.spec.k3,
            "eta": analysis.spec.eta,
        },
        "n": analysis.n,
        "weighting": analysis.weighting,
        "span": {
            "t_start": analysis.stats.t_start, "t_end": analysis.stats.t_end,
            "t_mid": analysis.stats.t_mid, "delta_t": analysis.stats.delta_t,
            "f0": analysis.stats.f0, "y_mean": analysis.stats.y_mean,
            "y_std": analysis.stats.y_std,
        },
        "refined": {
            "z": analysis.refined.z, "z_initial": analysis.refined.z_initial,
            "r_sum": analysis.refined.r_sum, "chi2": analysis.refined.chi2,
            "iterations": analysis.refined.iterations,
            "converged": analysis.refined.converged,
            "parameters": _parameters(analysis.spec, analysis.refined.beta),
        },
        "signals": [asdict(s) for s in analysis.summary.signals],
        "trend": {
            "coefficients": analysis.summary.trend,
            "ranges": analysis.summary.trend_ranges,
        },
    }
    for stage, pg in (("long", analysis.long), ("short", analysis.short)):
        if pg is not None:
            payload[f"search_{stage}"] = {
                "z_min": pg.z_min, "best": pg.best,
                "combinations": pg.combinations,
                "degenerate_hit": pg.degenerate_hit,
            }
    if analysis.boot is not None:
        boot = analysis.boot
        payload["bootstrap"] = {
            "n_rounds": boot.n_rounds, "n_ok": boot.n_ok,
            "failed_rounds": boot.failed_rounds, "seed": boot.seed,
            "grid_step": boot.grid_step, "flags": boot.flags,
            "param_sigma": dict(zip(boot.param_names, boot.param_sigma)),
            "summary_sigma": boot.summary_sigma,
        }
    return payload


@_series_verb
def _run(ctl: Control, args):
    spec = ctl.build(
        ("k1", "k2", "k3"), ModelSpec,
        ctl.get("k1", int, required=True),
        ctl.get("k2", int, required=True),
        ctl.get("k3", int, required=True),
    )
    # a pure trend runs no scan, so its range is optional
    cfg = _search_config(ctl, required=spec.k1 > 0)
    opts, weigh = _options(ctl, args)

    def job(ts, out):
        analysis = analyze(weigh(ts), spec, cfg, opts, workers=args.workers)
        payload = _analysis_dict(analysis)
        if cfg is not None:
            payload["search"] = {
                "f_min": cfg.f_min, "f_max": cfg.f_max, "n_long": cfg.n_long,
                "n_short": cfg.n_short, "half_width_frac": cfg.half_width_frac,
            }
        out.json("params.json", payload)

        refined = analysis.refined
        out.csv("residuals.csv", ["t", "y", "model", "residual"],
                [ts.t, ts.y, ts.y - refined.residuals, refined.residuals])

        stats, beta = analysis.stats, refined.beta
        tgrid = np.linspace(stats.t_start, stats.t_end, _CURVE_POINTS)
        cols = [tgrid, eval_model(tgrid, spec, beta, stats),
                trend_values(tgrid, spec, beta, stats)]
        names = ["t", "model", "trend"]
        for i in range(spec.k1):
            cols.append(signal_values(tgrid, spec, beta, stats, i))
            names.append(f"signal_{i + 1}")
        out.csv("curve.csv", names, cols)

        for pg in (analysis.long, analysis.short):
            for sl in pg.slices if pg is not None else ():
                out.csv(f"slice_{pg.stage}_{sl.signal}.csv", ["f", "z"],
                        [sl.f, sl.z], extra=f"signal={sl.signal} stage={pg.stage}")

        boot = analysis.boot
        if boot is not None:
            cols = [np.arange(boot.n_ok)] + list(boot.draws.T) + [boot.z_draws]
            out.csv("bootstrap_draws.csv", ["round"] + boot.param_names + ["z"],
                    cols)
        return f"{spec.label} z = {analysis.z!r}", "flags", analysis.flags
    return job


@_series_verb
def _dft(ctl: Control, args):
    cfg = _search_config(ctl)
    n_signals = ctl.get("signals", int, 1)
    k3 = ctl.get("trend_order", int, 0)
    oversample = ctl.get("oversample", float, 10.0)

    def job(ts, out):
        result = prewhiten(ts, n_signals, cfg, k3=k3, oversample=oversample)
        out.json("dft.json", {
            "oversample": oversample,
            "trend": result.trend,
            "passes": [
                {
                    "frequency": p.frequency, "period": p.period,
                    "amplitude": p.amplitude, "peak_power": p.peak_power,
                    "cos_amp": p.cos_amp, "sin_amp": p.sin_amp,
                }
                for p in result.passes
            ],
        })
        for i, p in enumerate(result.passes, start=1):
            out.csv(f"dft_pass_{i}.csv", ["f", "power"], [p.freq_grid, p.power],
                    extra=f"pass={i}")
        periods = ", ".join(repr(p.period) for p in result.passes)
        return f"{len(result.passes)} pass(es), periods {periods}", None, []
    return job


@_series_verb
def _ladder(ctl: Control, args):
    cfg = _search_config(ctl)
    specs = ctl.get("models", _model_list, required=True)
    opts, weigh = _options(ctl, args)

    def job(ts, out):
        report = model_ladder(weigh(ts), specs, cfg, opts, workers=args.workers)
        out.json("ladder.json", {
            "best": report.best,
            "ambiguous": report.ambiguous,
            "entries": [
                {
                    "label": e.spec.label, "eta": e.spec.eta, "stat": e.stat,
                    "z": e.z, "flags": e.flags,
                    "parameters": _parameters(e.spec, e.refined.beta),
                }
                for e in report.entries
            ],
            "comparisons": [
                {
                    "simple": c.simple, "complex": c.complex,
                    "eta1": c.eta1, "eta2": c.eta2,
                    "stat1": c.stat1, "stat2": c.stat2,
                    "f": c.f_value, "qf": c.q_f,
                    "verdict": c.verdict, "preferred": c.preferred,
                }
                for c in report.comparisons
            ],
        })
        flagged = [e.spec.label for e in report.entries if e.flags]
        return f"best {', '.join(report.best) or '(none)'}", "flagged", flagged
    return job


@_series_verb
def _predict(ctl: Control, args):
    cfg = _search_config(ctl)
    specs = ctl.get("models", _model_list, required=True)
    split = ctl.get("split", int)
    split_time = ctl.get("split_time", float)
    if (split is None) == (split_time is None):
        raise ConfigError(f"{ctl.path}: give exactly one of split or split_time")
    window = ctl.get("window", _window)
    window_points = ctl.get("window_points", _positive_int, 1000)
    opts, weigh = _options(ctl, args, default_boot=0)

    def job(ts, out):
        reports = prediction_test(
            weigh(ts), split if split is not None else split_time, specs, cfg, opts,
            window=window, window_points=window_points, workers=args.workers)
        fits = [r.analysis for r in reports]
        out.json("predict.json", {"reports": [
            {
                "label": a.spec.label, "n_fit": a.n, "n_pred": r.n_pred,
                "z_fit": a.z, "z_pred": r.z_pred, "m_pred": r.m_pred,
                "parameters": _parameters(a.spec, a.refined.beta),
            }
            for r, a in zip(reports, fits)
        ]})
        if reports[0].n_pred:
            n_fit = fits[0].n
            names = ["t", "y"]
            cols = [ts.t[n_fit:], ts.y[n_fit:]]
            for r, a in zip(reports, fits):
                names += [f"model_{a.spec.label}", f"residual_{a.spec.label}"]
                cols += [r.predicted, r.residuals_pred]
            out.csv("predict_residuals.csv", names, cols)
        summary = ", ".join(
            f"{a.spec.label} z_pred={r.z_pred!r}" if r.z_pred is not None else
            f"{a.spec.label} m_pred={r.m_pred!r}" for r, a in zip(reports, fits))
        return summary, None, []
    return job


def _simulate(ctl: Control, args) -> int:
    sim = SimulationSpec(
        model_id=ctl.get("model", int, required=True),
        n=ctl.get("n", int, required=True),
        sn=ctl.get("sn", float, required=True),
        seed=_seed(ctl, args),
    )
    out = ctl.path_of("out")
    ctl.reject_extras()
    if out is None:
        out = ctl.dir
    path = out
    if os.path.isdir(out) or not os.path.splitext(out)[1]:
        path = os.path.join(out, default_filename(sim))
    ts = simulate(sim)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_series(path, ts, header=(
        f"model {sim.model_id} n {sim.n} sn {sim.sn:g} seed {sim.seed}"))
    truth = model_truth(sim)
    _write_json(os.path.splitext(path)[0] + ".truth.json", {
        "version": __version__,
        "model": sim.model_id, "n": sim.n, "sn": sim.sn, "seed": sim.seed,
        "sigma": truth.sigma,
        "period_range": list(truth.period_range),
        "spec": {"k1": truth.spec.k1, "k2": truth.spec.k2, "k3": truth.spec.k3},
        "parameters": _parameters(truth.spec, truth.beta),
        "signals": [asdict(s) for s in truth.summary.signals],
    })
    print(f"simulate: wrote {path}")
    return 0


# verb: (help, command(ctl, args) -> exit code)
_VERBS = {
    "run": ("full analysis of one model shape", _run),
    "dft": ("periodogram baseline with pre-whitening", _dft),
    "ladder": ("fit several shapes and cross-compare", _ladder),
    "predict": ("fit early points, judge on withheld ones", _predict),
    "simulate": ("generate a synthetic series", _simulate),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcm",
        description="Multi-signal period search on unevenly sampled series.")
    parser.add_argument("--version", action="version",
                        version=f"dcm {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (doc, _) in _VERBS.items():
        p = sub.add_parser(verb, help=doc)
        p.add_argument("--control", required=True, help="control file path")
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads (never changes results)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the control file seed")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 when instability flags are raised")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 3
    try:
        ctl = Control(args.control)
        return _VERBS[args.verb][1](ctl, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DcmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
