"""The gain rule of tools/bench_pairs.py, which every BENCH_*.json
``gain_rule_met`` comes from: the change wins at least nine tenths of
the pairs, ties counting for neither side, and its median beats the
parent's by more than the parent's interquartile range."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def summary():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summary


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
