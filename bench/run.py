"""Benchmark of `dcm run`, end to end (--trace 0) or per layer (--trace 1).

    python3 bench/run.py --workload close-pair --seed 42 --seconds 38 --trace 0

Run from the root of a source checkout.  The series comes from
``dcmethod.simulate`` with the given seed.  Until ``--seconds`` have
passed (and at least ``MIN_SAMPLES`` samples exist), a fresh workload
process (bench/worker.py) runs `dcm run --workers 1` and then
`dcm run --workers <nproc>` through ``dcmethod.cli.main``; every sample
is checked against the simulator's truth and for byte-identical
``params.json`` across the two worker counts.  BLAS is pinned to one
thread.  With --trace 1, every second process traces its second call
instead, and the per-layer metrics of the traced calls are reported
together with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of
the machine, the samples and the checks goes to
bench/out/<workload>-seed<seed>-trace<0|1>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Set in every workload process: --workers threads alone fill the cores.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# A tail percentile needs ten samples beyond it, so at least eleven.
MIN_SAMPLES = 11
# Start no sample after this many seconds: a run must end within 180 s.
HARD_STOP_S = 150.0

END_TO_END = {
    "run_s": "s", "run_s_tail": "s", "serial_s": "s", "tuples_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.write_s": "s", "cli.bytes_written": "bytes",
    "timeseries.load_s": "s",
    "pipeline.analyze_s": "s",
    "gridsearch.long_s": "s", "gridsearch.short_s": "s",
    "gridsearch.slices_s": "s", "gridsearch.rounds_s": "s",
    "gridsearch.long_tuples": "count", "gridsearch.short_tuples": "count",
    "gridsearch.round_tuples": "count", "gridsearch.chunks": "count",
    "gridsearch.parallel_eff": "ratio",
    "linfit.design_s": "s", "linfit.factor_s": "s", "linfit.solve_s": "s",
    "linfit.factorisations": "count", "linfit.degenerate_tuples": "count",
    "linfit.degenerate_frac": "ratio", "linfit.ops_computed": "flop",
    "linfit.bytes_computed": "bytes",
    "model.summarize_s": "s", "model.summarize_calls": "count",
    "model.eval_calls": "count",
    "refine.polish_s": "s", "refine.calls": "count",
    "refine.iterations": "count", "refine.converged_frac": "ratio",
    "refine.maxiter_hits": "count", "refine.rounds_s": "s",
    "refine.rounds_parallel_eff": "ratio", "refine.rounds_failed": "count",
    "refine.diagnose_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}

# Layer metrics that must repeat exactly from one traced call to the next.
DETERMINISTIC = [
    "cli.bytes_written", "gridsearch.long_tuples", "gridsearch.short_tuples",
    "gridsearch.round_tuples", "gridsearch.chunks", "linfit.factorisations",
    "linfit.degenerate_tuples", "linfit.ops_computed", "linfit.bytes_computed",
    "model.summarize_calls", "model.eval_calls", "refine.calls",
    "refine.iterations", "refine.converged_frac", "refine.maxiter_hits",
    "refine.rounds_failed", "trace.spans",
]


@dataclass(frozen=True)
class Workload:
    """One `dcm run` problem: generator model, series size, grids.

    ``tolerance`` bounds |P - P_true| per signal (in order of ascending
    true period); ``sigma_k`` instead bounds it by that many bootstrap
    sigmas.
    """

    model: int
    n: int
    sn: float
    nlong: int
    nshort: int
    nboot: int
    tolerance: tuple = ()
    sigma_k: float = 0.0


# Sizes keep each workload's layer split (bench/README.md) while a
# sample of both calls stays near 3 s, so a 36 s run has >= 11 samples.
WORKLOADS = {
    # Scan kernel: the paper's close pair; tolerances of acceptance
    # criterion 3.
    "close-pair": Workload(3, 1000, 100.0, 64, 64, 0, tolerance=(0.002, 0.003)),
    # One factorisation reused for many right-hand sides, plus the
    # GIL-bound round loop.
    "bootstrap": Workload(1, 1000, 100.0, 150, 150, 180, sigma_k=4.0),
    # Near-singular harmonic tuples and a polish that does not converge;
    # tolerance derived in bench/README.md.
    "harmonics": Workload(7, 300, 1e6, 80, 50, 2, tolerance=(0.005, 0.03)),
}

HALF_WIDTH_FRAC = 0.05  # the `halfwidth` default of the control file


def write_inputs(wl: Workload, seed: int, work: Path, nproc: int):
    """Series, truth and one control file per worker count.

    Both control files share a basename and the data file, so their
    params.json outputs must match byte for byte."""
    from dcmethod import MODELS, SimulationSpec, model_truth, simulate, write_series

    sim = SimulationSpec(wl.model, wl.n, wl.sn, seed)
    write_series(work / "series.dat", simulate(sim))
    mdef = MODELS[wl.model]
    pmin, pmax = mdef.period_range
    spec = mdef.spec
    controls = {}
    for workers in (1, nproc):
        d = work / f"workers{workers}"
        d.mkdir()
        ctl = d / "fit.ctl"
        ctl.write_text(
            f"data = ../series.dat\nk1 = {spec.k1}\nk2 = {spec.k2}\n"
            f"k3 = {spec.k3}\npmin = {pmin!r}\npmax = {pmax!r}\n"
            f"nlong = {wl.nlong}\nnshort = {wl.nshort}\nnboot = {wl.nboot}\n"
            f"seed = {seed}\n")
        controls[workers] = ctl
    truth = sorted(s.period for s in model_truth(sim).summary.signals)
    return controls, truth, (1.0 / pmax, 1.0 / pmin), spec.k1


def descending_count(grids):
    """Strictly descending tuples with element i drawn from grids[i]
    (each grid ascending, as np.linspace makes them)."""
    import numpy as np

    ways = np.ones(len(grids[-1]))
    for i in range(len(grids) - 2, -1, -1):
        below = np.concatenate([[0.0], np.cumsum(ways)])
        ways = below[np.searchsorted(grids[i + 1], grids[i], side="left")]
    return int(round(ways.sum()))


def tuple_counts(wl: Workload, params, frange, k1):
    """Tuples the grids define: long, short, slice points, rounds."""
    import numpy as np

    f_min, f_max = frange
    a = 0.5 * HALF_WIDTH_FRAC * (f_max - f_min)
    grids = [np.linspace(max(f_min, c - a), min(f_max, c + a), wl.nshort)
             for c in params["search_long"]["best"]]
    long_n = math.comb(wl.nlong, k1)
    short_n = descending_count(grids)
    return {"long": long_n, "short": short_n,
            "slices": k1 * (wl.nlong + wl.nshort),
            "rounds": wl.nboot * short_n if wl.nboot >= 2 else 0}


def check_params(wl: Workload, params, truth, frange, k1):
    """Failures of one run's params.json against truth and grid counts."""
    problems = []
    periods = sorted(s["period"] for s in params["signals"])
    if len(periods) != len(truth):
        return [f"expected {len(truth)} signals, got {len(periods)}"]
    if wl.sigma_k:
        by_period = sorted(range(k1), key=lambda i: params["signals"][i]["period"])
        for rank, i in enumerate(by_period):
            sigma = params["bootstrap"]["summary_sigma"][f"P_{i + 1}"]
            if not (isinstance(sigma, float) and math.isfinite(sigma) and sigma > 0):
                problems.append(f"sigma_P_{i + 1} = {sigma!r} is not finite and > 0")
            elif abs(periods[rank] - truth[rank]) > wl.sigma_k * sigma:
                problems.append(
                    f"P = {periods[rank]!r} is more than {wl.sigma_k} sigma "
                    f"({sigma!r}) from {truth[rank]!r}")
    else:
        for p, t, tol in zip(periods, truth, wl.tolerance):
            if abs(p - t) > tol:
                problems.append(f"|P - {t!r}| = {abs(p - t)!r} > {tol}")
    counts = tuple_counts(wl, params, frange, k1)
    for stage, key in (("search_long", "long"), ("search_short", "short")):
        got = params[stage]["combinations"]
        if got != counts[key]:
            problems.append(f"{stage} covered {got} tuples, the grids define {counts[key]}")
    return problems


def run_sample(job, env, timeout):
    """Spawn one workload process; returns (result or None, setup_s, error)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, None, f"workload process exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned, None


def tail(values):
    """Highest sample with ten samples above it, and its percentile."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def machine_record(nproc, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": nproc, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **BLAS_PINS,
        "workers": [1, nproc], "git_commit": commit, "seed": seed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dcmethod" / "__init__.py").is_file():
        print(f"bench: no dcmethod sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.monotonic()
    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    work = BENCH / "work" / args.workload
    out_dir = BENCH / "out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    controls, truth, frange, k1 = write_inputs(wl, args.seed, work, nproc)
    env = dict(os.environ, **BLAS_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"

    samples = []
    failures = []
    deadline = started + args.seconds
    last = 0.0
    while True:
        now = time.monotonic()
        i = len(samples) + len(failures)
        enough = i >= (4 if args.trace else MIN_SAMPLES)
        if (now >= deadline and enough) or now - started + last > HARD_STOP_S:
            break
        traced = bool(args.trace and i % 2)
        job = {"spans": str(spans_path), "calls": [
            {"control": str(controls[1]), "workers": 1, "trace": False},
            {"control": str(controls[nproc]), "workers": nproc, "trace": traced}]}
        result, setup, error = run_sample(job, env, 170.0 - (now - started))
        last = time.monotonic() - now
        problems = [error] if error else []
        if result:
            for call, spec in zip(result["calls"], job["calls"]):
                if call["error"] or call["rc"] != 0:
                    problems.append(f"--workers {spec['workers']}: rc={call['rc']} "
                                    f"{call['error'] or ''}".strip())
        if not problems:
            blobs = [(controls[w].parent / "fit.out" / "params.json").read_bytes()
                     for w in (1, nproc)]
            if blobs[0] != blobs[1]:
                problems.append("params.json differs between --workers 1 and "
                                f"--workers {nproc}")
            try:
                params = json.loads(blobs[1])
                problems += check_params(wl, params, truth, frange, k1)
                counts = tuple_counts(wl, params, frange, k1)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"params.json lacks a checked field: {exc!r}")
        if problems:
            failures.append({"sample": i, "problems": problems})
            print(f"sample {i} FAILED: " + "; ".join(problems), file=sys.stderr)
            if result is None:
                break
            continue
        samples.append({
            "traced": traced, "setup_s": setup,
            "serial_s": result["calls"][0]["seconds"],
            "run_s": result["calls"][1]["seconds"],
            "peak_rss_mb": result["calls"][0]["peak_rss_mb"],
            "peak_rss_mb_all": result["calls"][1]["peak_rss_mb"],
            "layers": result["calls"][1].get("layers"),
            "self_s": result["calls"][1].get("self_s"),
        })

    attempted = len(samples) + len(failures)
    record = {
        "workload": args.workload, "config": wl.__dict__, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(nproc, args.seed),
        "samples": samples, "failures": failures,
    }
    notes = [f"workload {args.workload} seed {args.seed}: "
             f"{attempted} samples, {len(failures)} failed, "
             f"workers 1 and {nproc}, BLAS threads {BLAS_PINS['OPENBLAS_NUM_THREADS']}"]
    metrics = {}
    if samples:
        record["tuples"] = counts
        if args.trace and not any(s["traced"] for s in samples):
            failures.append({"sample": None, "problems": ["no traced sample"]})
        elif args.trace:
            metrics, drift = layer_summary(samples)
            if drift:
                failures.append({"sample": None, "problems": [
                    f"{k} varies between traced calls: {v}" for k, v in drift.items()]})
            notes += split_notes(metrics, samples, nproc)
        else:
            metrics, tail_pct = end_to_end(samples, counts)
            notes.append(f"run_s_tail is p{tail_pct:.0f} of {len(samples)} samples")
            notes.append(f"fail_frac = {len(failures)}/{attempted}")
    record["metrics"] = metrics
    record["notes"] = notes
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    units = PER_LAYER if args.trace else END_TO_END
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    correct = bool(samples) and not failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def end_to_end(samples, counts):
    run = [s["run_s"] for s in samples]
    run_s = statistics.median(run)
    tail_s, tail_pct = tail(run)
    covered = counts["long"] + counts["short"] + counts["slices"] + counts["rounds"]
    return {
        "run_s": run_s,
        "run_s_tail": tail_s,
        "serial_s": statistics.median(s["serial_s"] for s in samples),
        "tuples_per_s": covered / run_s,
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }, tail_pct


def layer_summary(samples):
    """Median of each layer metric over the traced samples, the tracing
    overhead, and the deterministic counts that did not repeat."""
    traced = [s["layers"] for s in samples if s["traced"]]
    metrics = {k: statistics.median(t[k] for t in traced)
               for k in PER_LAYER if k in traced[0]}
    drift = {k: sorted({t[k] for t in traced}) for k in DETERMINISTIC
             if len({t[k] for t in traced}) > 1}
    metrics["trace.overhead_s"] = (
        statistics.median(s["run_s"] for s in samples if s["traced"])
        - statistics.median(s["run_s"] for s in samples if not s["traced"]))
    return {k: metrics[k] for k in PER_LAYER}, drift


def split_notes(m, samples, workers):
    """Layer shares of analyze wall time, and self time per span name.

    The round loop's busy time is summed over threads, so its wall time
    is busy / (parallel efficiency x workers)."""
    analyze = m["pipeline.analyze_s"]
    eff = m["refine.rounds_parallel_eff"]
    loop_wall = m["refine.rounds_s"] / (eff * workers) if eff else 0.0
    shares = {
        "long+short": m["gridsearch.long_s"] + m["gridsearch.short_s"],
        "scan_rounds": m["gridsearch.rounds_s"],
        "round loop": loop_wall,
        "polish": m["refine.polish_s"],
    }
    last = [s for s in samples if s["traced"]][-1]["self_s"]
    return [
        "share of pipeline.analyze_s (wall): " + ", ".join(
            f"{k} {v / analyze:.3f}" for k, v in shares.items()),
        "self seconds: " + ", ".join(f"{k} {v:.4f}" for k, v in
                                     sorted(last.items(), key=lambda kv: -kv[1])),
    ]


if __name__ == "__main__":
    sys.exit(main())
