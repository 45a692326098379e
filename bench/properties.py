"""Workload properties that are inputs to the benchmark, not metrics.

For each workload on the default seed, the share of long-stage tuples whose
weighted design matrix has a condition number above 1e8: the
near-singular tuples that a screening kernel must send back to the
exact SVD.

    python3 bench/properties.py
"""

import itertools
import sys

import numpy as np

import run

COND_LIMIT = 1e8
SEED = 42


def cond_share(wl, seed):
    sys.path.insert(0, str(run.SRC))
    from dcmethod import (MODELS, SimulationSpec, design_matrix, simulate,
                          span_stats)

    ts = simulate(SimulationSpec(wl.model, wl.n, wl.sn, seed))
    mdef = MODELS[wl.model]
    pmin, pmax = mdef.period_range
    grid = np.linspace(1.0 / pmax, 1.0 / pmin, wl.nlong)
    stats = span_stats(ts)
    combos = itertools.combinations(range(wl.nlong), mdef.spec.k1)
    high = total = 0
    while block := list(itertools.islice(combos, 500)):
        tuples = grid[np.asarray(block)[:, ::-1]]
        a = design_matrix(ts.t, mdef.spec, tuples, stats)
        if ts.sigma is not None:
            a = a / ts.sigma[None, :, None]
        s = np.linalg.svd(a, compute_uv=False)
        high += int((s[:, 0] > COND_LIMIT * s[:, -1]).sum())
        total += len(block)
    return high, total


def main():
    for name, wl in run.WORKLOADS.items():
        high, total = cond_share(wl, SEED)
        print(f"{name}: {high} of {total} long-stage tuples "
              f"({100.0 * high / total:.2f}%) have cond > {COND_LIMIT:g}")


if __name__ == "__main__":
    main()
