"""Span tracing of one `dcm run` call from outside the program.

The tracer replaces public dcmethod functions with timing wrappers at
the names their callers look up (``pipeline.long_search``,
``gridsearch.evaluate_z``, the ``BatchSolver`` methods, ...), so the
program itself is unchanged.  Spans are kept in memory as
``(id, name, start, end, parent, thread, attrs)`` and turned into the
per-layer metrics by :func:`layer_metrics`.

A span started on a pool thread that has no open span of its own takes
as parent the innermost open span of the main thread: the main thread
is blocked inside the stage that submitted the work.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter

# (module, attribute, span name, attrs function or None).  A span name
# of None only counts calls.
PATCHES = [
    ("dcmethod.cli", "analyze", "pipeline.analyze", None),
    ("dcmethod.cli", "load_series", "timeseries.load_series", None),
    ("dcmethod.cli", "eval_model", None, None),
    ("dcmethod.pipeline", "long_search", "gridsearch.long_search", None),
    ("dcmethod.pipeline", "short_search", "gridsearch.short_search", None),
    ("dcmethod.pipeline", "solve_linear", "linfit.solve_linear", None),
    ("dcmethod.pipeline", "refine", "refine.refine", "refined"),
    ("dcmethod.pipeline", "summarize_signals", "model.summarize_signals", None),
    ("dcmethod.pipeline", "bootstrap", "refine.bootstrap", "bootstrap"),
    ("dcmethod.gridsearch", "evaluate_z", "linfit.evaluate_z", "batch"),
    ("dcmethod.gridsearch", "design_solver", "linfit.design_solver", "batch"),
    ("dcmethod.gridsearch", "periodogram_slice", "gridsearch.periodogram_slice", None),
    ("dcmethod.refine", "scan_rounds", "gridsearch.scan_rounds", "rounds"),
    ("dcmethod.refine", "solve_linear", "linfit.solve_linear", None),
    ("dcmethod.refine", "refine", "refine.refine", "refined"),
    ("dcmethod.refine", "summarize_signals", "model.summarize_signals", None),
    ("dcmethod.refine", "fit_columns", "linfit.fit_columns", None),
    ("dcmethod.refine", "diagnose_stability", "refine.diagnose_stability", None),
    ("dcmethod.refine", "eval_model", None, None),
    ("dcmethod.linfit", "design_matrix", "linfit.design_matrix", "design"),
    ("dcmethod.linfit.BatchSolver", "__init__", "linfit.factor", "factor"),
    ("dcmethod.linfit.BatchSolver", "solve", "linfit.solve", "solve"),
    ("dcmethod.linfit.BatchSolver", "misfit", "linfit.misfit", "misfit"),
]

_F8 = 8  # bytes per float64


def _attrs_refined(args, kwargs, out):
    return {"iterations": out.iterations, "converged": out.converged}


def _attrs_bootstrap(args, kwargs, out):
    return {"failed_rounds": out.failed_rounds}


def _attrs_batch(args, kwargs, out):
    return {"batch": len(args[2])}


def _attrs_rounds(args, kwargs, out):
    return {"rounds": len(args[3])}


def _attrs_design(args, kwargs, out):
    # ops: one evaluation per matrix element; bytes: the matrix written.
    b, n, m = out.shape if out.ndim == 3 else (1,) + out.shape
    return {"ops": b * n * m, "bytes": _F8 * b * n * m}


def _attrs_factor(args, kwargs, out):
    # Thin SVD by the R-SVD count (Golub & Van Loan): 4 n m^2 + 22 m^3
    # per matrix; bytes: A read, U and Vt and s written.
    solver = args[0]
    b, n, m = solver.a.shape
    return {"matrices": b, "degenerate": int(solver.degenerate.sum()),
            "ops": b * (4 * n * m * m + 22 * m ** 3),
            "bytes": _F8 * b * (2 * n * m + m * m + m)}


def _attrs_solve(args, kwargs, out):
    # Per matrix and right-hand side: U^T b (2nm), V S^+ (2m^2 + m),
    # A x (2nm), b - Ax (n); bytes: U, A, Vt read once, b read and
    # x, resid written per right-hand side.
    solver = args[0]
    b, n, m = solver.a.shape
    r = out[0].shape[-1]
    return {"ops": b * r * (4 * n * m + 2 * m * m + m + n),
            "bytes": _F8 * b * (2 * n * m + m * m + r * (2 * n + m))}


def _attrs_misfit(args, kwargs, out):
    # The residual sum of squares on top of the solve: 2n per pair.
    b, r = out.shape
    n = args[0].a.shape[1]
    return {"ops": 2 * b * r * n, "bytes": _F8 * b * r * (n + 1)}


_ATTRS = {
    "refined": _attrs_refined, "bootstrap": _attrs_bootstrap,
    "batch": _attrs_batch, "rounds": _attrs_rounds, "design": _attrs_design,
    "factor": _attrs_factor, "solve": _attrs_solve, "misfit": _attrs_misfit,
}


def _resolve(path):
    """Module or class object for a dotted path.  Modules come from
    ``sys.modules``: ``dcmethod.refine`` as an attribute is the function
    the package re-exports, not the module."""
    if path in sys.modules:
        return sys.modules[path]
    mod, _, cls = path.rpartition(".")
    return getattr(sys.modules[mod], cls)


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, attrs=None):
        """A function that records one span per call of ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = attrs(args, kwargs, out) if attrs else None
            tracer.spans.append(
                (sid, name, start, end, parent, threading.get_ident(), extra))
            return out

        return traced

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Patch every name in ``PATCHES``; :meth:`uninstall` undoes it."""
        for path, attr, name, kind in PATCHES:
            owner = _resolve(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            if name is None:
                wrapped = self._counted(fn, f"{path}.{attr}")
            else:
                wrapped = self.wrap(fn, name, _ATTRS.get(kind))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self):
        """Spans as JSON-ready dicts, in start order."""
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "thread": s[5], "attrs": s[6]}
            for s in sorted(self.spans, key=lambda s: s[2])
        ]


def _union(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time per span name: duration minus the part of the span's
    interval that its children cover (children on other threads
    included, overlapping children counted once)."""
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = Counter()
    for s in spans:
        covered = _union(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in kids.get(s["id"], ()))
        out[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(out)


def max_iter_default():
    """The polish iteration cap, from the public signature of refine."""
    fn = sys.modules["dcmethod.refine"].refine
    return inspect.signature(fn).parameters["max_iter"].default


def layer_metrics(spans, counts, workers, max_iter):
    """Per-layer metrics of one traced call (see bench/README.md).

    Times are busy seconds summed across threads; counts come from call
    arguments and results, never from timings.
    """
    def dur(s):
        return s["end"] - s["start"]

    by_id = {s["id"]: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def all_of(name):
        return named.get(name, [])

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    def total(name, where=None):
        return sum(dur(s) for s in all_of(name) if where is None or where(s))

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in all_of(name))

    root = all_of("cli.main")[0]
    analyze = all_of("pipeline.analyze")[0]

    # Scans: chunk spans are the direct children of each scan stage.
    scan_names = ("gridsearch.long_search", "gridsearch.short_search",
                  "gridsearch.scan_rounds")
    busy = wall = 0.0
    chunks = 0
    stage_tuples = Counter()
    for s in spans:
        pname = parent_name(s)
        if pname not in scan_names:
            continue
        if s["name"] == "gridsearch.periodogram_slice":
            wall -= dur(s)
            continue
        busy += dur(s)
        if s["name"] in ("linfit.evaluate_z", "linfit.design_solver"):
            chunks += 1
            stage_tuples[pname] += s["attrs"]["batch"]
    for name in scan_names:
        wall += total(name)
    rounds = [s["attrs"]["rounds"] for s in all_of("gridsearch.scan_rounds")]
    n_rounds = rounds[0] if rounds else 0

    # Bootstrap round loop: the per-round calls made from bootstrap.
    round_spans = [s for s in spans if parent_name(s) == "refine.bootstrap"
                   and s["name"] in ("linfit.solve_linear", "refine.refine",
                                     "model.summarize_signals")]
    rounds_busy = sum(dur(s) for s in round_spans)
    rounds_wall = (max(s["end"] for s in round_spans)
                   - min(s["start"] for s in round_spans)) if round_spans else 0.0

    refines = all_of("refine.refine")
    factorisations = attr_sum("linfit.factor", "matrices")
    degenerate = attr_sum("linfit.factor", "degenerate")
    kernel = ("linfit.design_matrix", "linfit.factor", "linfit.solve",
              "linfit.misfit")
    solve_top = [s for s in all_of("linfit.solve")
                 if parent_name(s) != "linfit.misfit"]
    eval_calls = sum(v for k, v in counts.items() if k.endswith(".eval_model"))

    return {
        "cli.write_s": root["end"] - analyze["end"],
        "timeseries.load_s": total("timeseries.load_series"),
        "pipeline.analyze_s": dur(analyze),
        "gridsearch.long_s": total("gridsearch.long_search"),
        "gridsearch.short_s": total("gridsearch.short_search"),
        "gridsearch.slices_s": total("gridsearch.periodogram_slice"),
        "gridsearch.rounds_s": total("gridsearch.scan_rounds"),
        "gridsearch.long_tuples": stage_tuples["gridsearch.long_search"],
        "gridsearch.short_tuples": stage_tuples["gridsearch.short_search"],
        "gridsearch.round_tuples":
            stage_tuples["gridsearch.scan_rounds"] * n_rounds,
        "gridsearch.chunks": chunks,
        "gridsearch.parallel_eff": busy / (wall * workers) if wall > 0 else 0.0,
        "linfit.design_s": total("linfit.design_matrix"),
        "linfit.factor_s": total("linfit.factor"),
        "linfit.solve_s": total("linfit.misfit") + sum(dur(s) for s in solve_top),
        "linfit.factorisations": factorisations,
        "linfit.degenerate_tuples": degenerate,
        "linfit.degenerate_frac":
            degenerate / factorisations if factorisations else 0.0,
        "linfit.ops_computed": sum(attr_sum(k, "ops") for k in kernel),
        "linfit.bytes_computed": sum(attr_sum(k, "bytes") for k in kernel),
        "model.summarize_s": total("model.summarize_signals"),
        "model.summarize_calls": len(all_of("model.summarize_signals")),
        "model.eval_calls": eval_calls,
        "refine.polish_s": total(
            "refine.refine", lambda s: parent_name(s) == "pipeline.analyze"),
        "refine.calls": len(refines),
        "refine.iterations": sum(s["attrs"]["iterations"] for s in refines),
        "refine.converged_frac":
            sum(s["attrs"]["converged"] for s in refines) / len(refines)
            if refines else 0.0,
        "refine.maxiter_hits": sum(
            1 for s in refines
            if s["attrs"]["iterations"] >= max_iter and not s["attrs"]["converged"]),
        "refine.rounds_s": rounds_busy,
        "refine.rounds_parallel_eff":
            rounds_busy / (rounds_wall * workers) if rounds_wall > 0 else 0.0,
        "refine.rounds_failed": attr_sum("refine.bootstrap", "failed_rounds"),
        "refine.diagnose_s": total("refine.diagnose_stability"),
        "trace.spans": len(spans),
    }
