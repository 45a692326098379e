"""Tests of the benchmark's own logic: correctness checks, grid counts,
span bookkeeping and the repeatability of the traced counts.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import itertools
import json
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))

import dcmethod.cli as cli  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

# Reduced grids: enough tuples for every layer to run, fast enough for
# a unit test.  The period checks are not applied at these sizes.
SMALL = {
    "close-pair": dict(nlong=40, nshort=30),
    "bootstrap": dict(nlong=60, nshort=40, nboot=40),
    "harmonics": dict(nlong=40, nshort=30, nboot=3),
}


def _params(control):
    return json.loads((control.parent / "fit.out" / "params.json").read_text())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_checks_pass_on_truth_and_fail_on_wrong_truth(name, tmp_path):
    wl = run.WORKLOADS[name]
    controls, truth, frange, k1 = run.write_inputs(wl, 42, tmp_path, 2)
    assert cli.main(["run", "--control", str(controls[1])]) == 0
    params = _params(controls[1])
    assert run.check_params(wl, params, truth, frange, k1) == []

    wrong = [p * 1.05 for p in truth]
    assert run.check_params(wl, params, wrong, frange, k1)

    params["search_short"]["combinations"] += 1
    problems = run.check_params(wl, params, truth, frange, k1)
    assert any("search_short" in p for p in problems)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counts_repeat_across_runs_and_worker_counts(name, tmp_path):
    wl = dataclasses.replace(run.WORKLOADS[name], **SMALL[name])
    controls, truth, frange, k1 = run.write_inputs(wl, 7, tmp_path, 2)
    seen = []
    for workers in (1, 2, 1, 2):
        call = {"control": str(controls[workers]), "workers": workers, "trace": True}
        result = worker.run_call(call, str(tmp_path / "spans.json"))
        assert result["error"] is None and result["rc"] == 0
        seen.append({k: result["layers"][k] for k in run.DETERMINISTIC})
    assert all(s == seen[0] for s in seen[1:])

    counts = run.tuple_counts(wl, _params(controls[1]), frange, k1)
    assert seen[0]["gridsearch.long_tuples"] == counts["long"]
    assert seen[0]["gridsearch.short_tuples"] == counts["short"]
    assert seen[0]["gridsearch.round_tuples"] == counts["rounds"]
    assert seen[0]["refine.calls"] == 1 + (wl.nboot if wl.nboot >= 2 else 0)


def test_tracer_restores_every_patched_name():
    before = [getattr(tracer._resolve(path), attr)
              for path, attr, _, _ in tracer.PATCHES]
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    after = [getattr(tracer._resolve(path), attr)
             for path, attr, _, _ in tracer.PATCHES]
    assert all(a is b for a, b in zip(before, after))


def test_descending_count_matches_enumeration():
    rng = np.random.default_rng(3)
    for k in (1, 2, 3):
        grids = [np.sort(rng.uniform(0.0, 1.0, size=7)) for _ in range(k)]
        brute = sum(1 for t in itertools.product(*grids)
                    if all(a > b for a, b in zip(t, t[1:])))
        assert run.descending_count(grids) == brute


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 0, "name": "p", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "c", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "c", "start": 3.0, "end": 6.0, "parent": 0},
    ]
    assert tracer.self_times(spans) == {"p": 5.0, "c": 6.0}


def test_tail_has_ten_samples_above_it():
    values = list(range(25))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * 15 / 25)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
