"""Alternating parent/change runs of bench/run.py, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seed 101 \\
        --out BENCH_14.json

Each DIR is the root of a source checkout holding bench/ and src/.  Pair
i of 10 runs `bench/run.py --trace 0 --seed <seed + i>` of each checkout
on every workload the change's BENCHMARK.json lists, at the run length
bench/run.py sets, the parent first on even i and the change first on
odd i.  The output holds, per workload and end-to-end metric, each side's
values, median and quartiles, the pairs the change won (by the
direction BENCHMARK.json gives) and whether the gain rule holds: wins
in at least nine tenths of the pairs and a median gap wider than the
parent's interquartile range.  It also holds, per scan stage on each
side, the tuples sent to the exact kernel, the (tuple, round) pairs the
kernel fitted for them, the pairs the explicit-residual floor examined
(0 on a checkout without that pass) and the tuples whose guard the scan
computed, counted in-process at the first seed with `--workers 1`, and
the machine: nproc, Python, NumPy, the BLAS and the thread pins
bench/run.py sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

# Run inside a checkout: per stage of one `dcm run --workers 1` per
# workload, stages in call order, the tuples the scans sent to the exact
# kernel, the (tuple, round) pairs it fitted, the pairs the
# explicit-residual floor (`_Blocks.floor`) examined and the tuples whose
# guard the scan computed (`_certified_floor`, the guard's certificate).
# The wrappers forward whatever they are given; a `rescore` call without
# a pair mask fits every round.  A checkout without `_Blocks.floor` reads
# 0 floor pairs, one without `_certified_floor` None certified tuples.
COUNT = r"""
import json, pathlib, sys, tempfile
root = pathlib.Path.cwd()
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import run as bench
import dcmethod.cli as cli
from dcmethod import gridsearch

scan, rescore = gridsearch._scan, gridsearch._Blocks.rescore
floor = getattr(gridsearch._Blocks, "floor", None)
certify = getattr(gridsearch, "_certified_floor", None)
counts = []

def counting_scan(*args, **kw):
    counts.append({"tuples": 0, "pairs": 0, "floor_pairs": 0,
                   "certified": 0 if certify else None})
    return scan(*args, **kw)

def counting_rescore(blocks, tuples, *args, **kw):
    need = args[0] if args else kw.get("need")
    counts[-1]["tuples"] += len(tuples)
    counts[-1]["pairs"] += (len(tuples) * blocks.n_rhs if need is None
                            else int(need.sum()))
    return rescore(blocks, tuples, *args, **kw)

def counting_floor(blocks, tuples, need, *args, **kw):
    counts[-1]["floor_pairs"] += int(need.sum())
    return floor(blocks, tuples, need, *args, **kw)

def counting_certify(gram, *args, **kw):
    counts[-1]["certified"] += gram.shape[-1]
    return certify(gram, *args, **kw)

gridsearch._scan, gridsearch._Blocks.rescore = counting_scan, counting_rescore
if floor is not None:
    gridsearch._Blocks.floor = counting_floor
if certify is not None:
    gridsearch._certified_floor = counting_certify
out = {}
for name, wl in bench.WORKLOADS.items():
    with tempfile.TemporaryDirectory() as tmp:
        controls = bench.write_inputs(wl, int(sys.argv[1]), pathlib.Path(tmp), 2)[0]
        counts.clear()
        cli.main(["run", "--control", str(controls[1]), "--workers", "1"])
        out[name] = dict(zip(("long", "short", "rounds"), counts))
print(json.dumps(out))
"""


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])

PAIRS = 10


def bench_run(root: Path, workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    result = last_json(proc)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def exact_counts(root: Path, seed: int):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", COUNT, str(seed)], cwd=root, env=env,
                          capture_output=True, text=True)
    return last_json(proc)


def summary(parent, change, better):
    """Median and quartiles per side, the change's wins and the gain rule."""
    def spread(values):
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": q2, "q1": q1, "q3": q3}

    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    out = {"better": better, "parent": spread(parent), "change": spread(change),
           "change_wins": wins, "pairs": len(parent)}
    gap = sign * (out["parent"]["median"] - out["change"]["median"])
    out["gain_rule_met"] = (wins >= 0.9 * len(parent)
                            and gap > out["parent"]["q3"] - out["parent"]["q1"])
    out["median_change_frac"] = (out["change"]["median"] / out["parent"]["median"] - 1.0
                                 if out["parent"]["median"] else None)
    return out


def machine(change: Path):
    import numpy

    sys.path.insert(0, str(change / "bench"))
    import run as bench

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", **bench.BLAS_PINS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                run = bench_run(sides[side], w, args.seed + i)
                runs[w][side].append({"seed": args.seed + i, "first": side == order[0],
                                      **run})
                print(f"pair {i} {w} {side}: {run['metrics']}", file=sys.stderr)

    record = {
        "command": f"python3 tools/bench_pairs.py --parent PARENT --change CHANGE "
                   f"--seed {args.seed} --out {args.out.name}",
        "bench": f"bench/run.py --trace 0 at its own run length ({spec['run_seconds']:g} s "
                 f"in BENCHMARK.json), seeds {args.seed}-{args.seed + PAIRS - 1}, "
                 f"alternating which side runs first",
        "machine": machine(sides["change"]),
        "exact_pass": {side: exact_counts(root, args.seed)
                              for side, root in sides.items()},
        "workloads": {},
    }
    for w, by_side in runs.items():
        metrics = {}
        for name in better:
            parent = [r["metrics"][name] for r in by_side["parent"]]
            change = [r["metrics"][name] for r in by_side["change"]]
            metrics[name] = summary(parent, change, better[name])
        record["workloads"][w] = {"metrics": metrics, "runs": by_side}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
