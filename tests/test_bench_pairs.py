"""tools/bench_pairs.py: the gain rule, which every BENCH_*.json
``gain_rule_met`` comes from (the change wins at least nine tenths of
the pairs, ties counting for neither side, and its median beats the
parent's by more than the parent's interquartile range), and its COUNT
script, which wraps private scan names by signature."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
BENCH = ROOT / "bench"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def summary(bench_pairs):
    return bench_pairs.summary


# ten parent runs: median 1.045, quartiles 1.0225 and 1.0675 (IQR 0.045)
PARENT = [1.0 + 0.01 * i for i in range(10)]


def test_nine_wins_and_a_gap_above_the_spread_meet_the_rule(summary):
    change = [p - 0.1 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    out = summary(PARENT, change, "lower")
    assert out["change_wins"] == 9
    assert out["parent"]["q3"] - out["parent"]["q1"] == pytest.approx(0.045)
    assert out["gain_rule_met"]


def test_nine_wins_within_the_spread_do_not(summary):
    change = [p - 0.01 for p in PARENT[:9]] + [PARENT[9] + 0.5]
    out = summary(PARENT, change, "lower")
    assert out["change_wins"] == 9
    gap = out["parent"]["median"] - out["change"]["median"]
    assert 0.0 < gap <= out["parent"]["q3"] - out["parent"]["q1"]
    assert not out["gain_rule_met"]


def test_ties_count_for_neither_side(summary):
    change = [p - 0.1 for p in PARENT[:8]] + PARENT[8:]
    out = summary(PARENT, change, "lower")
    assert out["change_wins"] == 8
    assert not out["gain_rule_met"]
    assert summary(PARENT, list(PARENT), "lower")["change_wins"] == 0


def test_higher_is_better_flips_the_sign(summary):
    change = [p + 0.1 for p in PARENT[:9]] + [PARENT[9] - 0.01]
    up = summary(PARENT, change, "higher")
    assert up["change_wins"] == 9
    assert up["gain_rule_met"]
    down = summary(PARENT, change, "lower")
    assert down["change_wins"] == 1
    assert not down["gain_rule_met"]


@pytest.mark.skipif(not (BENCH / "run.py").is_file(),
                    reason="no bench/ directory in this checkout")
def test_the_count_script_counts_every_scan_of_this_checkout(bench_pairs, monkeypatch):
    # a private name the script wraps that no longer takes its arguments
    # would fail here, not first in a benchmark run
    counts = bench_pairs.exact_counts(ROOT, 1)
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("run").WORKLOADS
    assert set(counts) == set(workloads)
    for name, wl in workloads.items():
        scans = counts[name]
        assert list(scans) == ["long", "short"] + (["rounds"] if wl.nboot >= 2 else [])
        for stage in ("long", "short"):
            assert scans[stage]["certified"] is not None
            assert scans[stage]["certified"] > 0
        if "rounds" in scans:
            assert scans["rounds"]["certified"] == 0
