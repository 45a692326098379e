"""Acceptance gate.

One test per shipping criterion (multi-part criteria get one test per
part), named ``test_criterion_NN_*`` so ``pytest -v`` prints a verdict
line for each.  Frozen seeds make every run reproduce the same series;
tolerances come from the error scales of the frozen reference runs.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from dcmethod import (
    AnalysisOptions,
    ModelSpec,
    SearchConfig,
    TimeSeries,
    long_search,
    short_search,
    span_stats,
)
from dcmethod.cli import main
from dcmethod.dft import prewhiten
from dcmethod.linfit import solve_linear
from dcmethod.model import design_matrix
from dcmethod.pipeline import analyze
from dcmethod.selection import ModelScore, fisher_test, model_ladder, \
    no_signal_test, prediction_test
from dcmethod.simulate import SimulationSpec, model_truth, simulate
from dcmethod.timeseries import write_series

NO_BOOT = AnalysisOptions(n_boot=0)


# ---------------------------------------------------------------------------
# criterion 1: Fisher arithmetic on the frozen eight-model reference
# tuples (eta, chi-square, n = 100) is exact and fast
# ---------------------------------------------------------------------------

S1 = ModelScore("g(1,1,-1)", 3, 738.0)
S2 = ModelScore("g(1,1,0)", 4, 84.7422)
S3 = ModelScore("g(1,1,1)", 5, 83.8104)
S4 = ModelScore("g(1,1,2)", 6, 83.7686)


def test_criterion_01_fisher_arithmetic_is_exact_and_fast():
    t0 = time.perf_counter()
    first = fisher_test(S1, S2, 100)
    assert round(fisher_test(S2, S3, 100).f_value, 4) == 1.0451
    assert round(fisher_test(S3, S4, 100).f_value, 4) == 0.0464
    # QF of the first comparison underflows far past the 1e-16 clamp
    assert first.q_f <= 1e-16
    assert first.verdict == "reject-H0"
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.xfail(strict=True, reason=(
    "the rounded reference inputs give F = 732.33; reproducing the "
    "printed 733 needs more chi-square digits than the reference "
    "carries (738 is rounded to 3 figures)"))
def test_criterion_01_fisher_f733_from_rounded_inputs():
    assert round(fisher_test(S1, S2, 100).f_value) == 733


# ---------------------------------------------------------------------------
# criterion 2: one-signal recovery at n=100, SN=100 in under 10 s
# single-threaded
# ---------------------------------------------------------------------------

def test_criterion_02_model1_recovery_single_threaded():
    t0 = time.perf_counter()
    ts = simulate(SimulationSpec(1, 100, 100, seed=42))
    cfg = SearchConfig.from_periods(0.63, 5.70)
    a = analyze(ts, ModelSpec(1, 1, 0), cfg, NO_BOOT, workers=1)
    sig = a.summary.signals[0]
    assert abs(sig.period - 1.9) <= 0.06
    assert abs(sig.amplitude - 2.0) <= 0.08
    assert abs(sig.t_max1 - 0.40) <= 0.005
    assert abs(a.summary.trend[0] - 1.0) <= 0.05
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# criterion 3: two close periods (0.16 and 0.17 over a unit span) are
# separated by the joint search in under 60 s at nL=200 with 4 workers
# ---------------------------------------------------------------------------

def test_criterion_03_model3_close_pair_is_resolved():
    t0 = time.perf_counter()
    ts = simulate(SimulationSpec(3, 100, 100, seed=11))
    cfg = SearchConfig.from_periods(0.053, 0.480, n_long=200, n_short=200)
    a = analyze(ts, ModelSpec(2, 1, 0), cfg, NO_BOOT, workers=4)
    periods = [s.period for s in a.summary.signals]
    assert abs(periods[0] - 0.16) <= 0.002
    assert abs(periods[1] - 0.17) <= 0.003
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 4: the one-frequency-at-a-time baseline fails in the two
# documented ways the joint search avoids
# ---------------------------------------------------------------------------

DFT_CFG = SearchConfig.from_periods(0.053, 0.480)


def test_criterion_04_dft_blends_the_close_pair():
    # same series as criterion 3
    ts = simulate(SimulationSpec(3, 100, 100, seed=11))
    res = prewhiten(ts, 1, DFT_CFG, k3=0, oversample=50.0)
    p = res.periods[0]
    assert abs(p - 0.165) <= 0.10 * 0.165  # lands between the pair
    assert abs(p - 0.16) > 0.02 * 0.16     # resolves neither signal
    assert abs(p - 0.17) > 0.02 * 0.17


def test_criterion_04_dft_detects_the_harmonic_first():
    # double-harmonic signal: the strong j=2 overtone of P=0.16 wins
    ts = simulate(SimulationSpec(6, 100, 100, seed=6))
    res = prewhiten(ts, 1, DFT_CFG, k3=0, oversample=50.0)
    assert abs(res.periods[0] - 0.080) <= 0.05 * 0.080


# ---------------------------------------------------------------------------
# criterion 5: the eight-shape ladder picks g(1,1,0) on one-signal data
# and every overparameterised K1=2 shape carries an instability flag,
# across 5 seeds
# ---------------------------------------------------------------------------

LADDER_SHAPES = [ModelSpec(*s) for s in (
    (1, 1, -1), (1, 1, 0), (1, 1, 1), (1, 1, 2),
    (2, 1, -1), (2, 1, 0), (2, 1, 1), (2, 1, 2),
)]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_criterion_05_ladder_selection_and_flags(seed):
    ts = simulate(SimulationSpec(1, 100, 100, seed=seed))
    cfg = SearchConfig.from_periods(0.63, 5.70, n_long=100, n_short=100)
    rep = model_ladder(ts, LADDER_SHAPES, cfg,
                       AnalysisOptions(n_boot=24, seed=900 + seed), workers=4)
    assert rep.best == ["g(1,1,0)"]
    assert not rep.ambiguous
    for entry in rep.entries:
        if entry.spec.k1 == 2:
            assert entry.flags, f"{entry.spec.label} raised no flag"


# ---------------------------------------------------------------------------
# criterion 6: pure polynomials up to order 3 are rejected against the
# one-signal shape on fresh one-signal data
# ---------------------------------------------------------------------------

def test_criterion_06_no_signal_hypothesis_is_rejected():
    ts = simulate(SimulationSpec(1, 100, 100, seed=77))
    a = analyze(ts, ModelSpec(1, 1, 0),
                SearchConfig.from_periods(0.63, 5.70), NO_BOOT)
    rep = no_signal_test(ts, a, 3)
    for cmp in rep.comparisons[:3]:  # K3 = 0, 1, 2: proper F tests
        assert cmp.q_f < 1e-12, cmp.simple
        assert cmp.preferred == "g(1,1,0)"
    # K3 = 3 has eta equal to the signal shape: no F test exists and
    # the far lower statistic keeps the signal preferred
    tie = rep.comparisons[3]
    assert tie.verdict == "not-applicable"
    assert tie.preferred == "g(1,1,0)"
    assert rep.signal_preferred


# ---------------------------------------------------------------------------
# criterion 7: out-of-sample error ranks the true two-signal shape
# first, the three-signal shape close behind, the one-signal shape far
# worse (medians over 10 seeds)
# ---------------------------------------------------------------------------

def test_criterion_07_prediction_error_ordering():
    cfg = SearchConfig.from_periods(0.053, 0.480, n_long=80, n_short=60)
    shapes = [ModelSpec(1, 1, 0), ModelSpec(2, 1, 0), ModelSpec(3, 1, 0)]
    z_pred = {s.label: [] for s in shapes}
    for seed in range(1, 11):
        ts = simulate(SimulationSpec(3, 50, 10, seed=seed))
        for rep in prediction_test(ts, 40, shapes, cfg, NO_BOOT, workers=4):
            z_pred[rep.analysis.spec.label].append(rep.z_pred)
    med = {label: float(np.median(v)) for label, v in z_pred.items()}
    assert med["g(2,1,0)"] < med["g(3,1,0)"] < med["g(1,1,0)"]
    assert med["g(1,1,0)"] > 3.0 * med["g(2,1,0)"]


# ---------------------------------------------------------------------------
# criterion 8: the chunked, batched scans equal a dumb sequential
# scanner bit for bit, and every scanned z equals an independent
# normal-equations solve to 1e-10 relative
# ---------------------------------------------------------------------------

def small_series(n=18, seed=3):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.random(n))
    y = (np.cos(2 * np.pi * 6.25 * t) + np.cos(2 * np.pi * 5.9 * (t - 0.05))
         + 1.0 + rng.normal(0, 0.1, n))
    return TimeSeries(t, y, np.full(n, 0.1))


def normal_equations_z(ts, spec, f, stats):
    a = design_matrix(ts.t, spec, np.asarray(f, dtype=float), stats)
    aw = a / ts.sigma[:, None]
    bw = ts.y / ts.sigma
    x = np.linalg.solve(aw.T @ aw, aw.T @ bw)
    r = bw - aw @ x
    return math.sqrt((r @ r) / ts.n)


def scan_all_ordered_tuples(ts, spec, grids):
    best_z, best_f, best_beta = np.inf, None, None
    zs = []
    for combo in itertools.product(*grids):
        f = np.asarray(combo)
        if not np.all(f[:-1] > f[1:]):
            continue
        fit = solve_linear(ts, spec, f)
        zs.append((f, fit.z))
        if fit.z < best_z or (fit.z == best_z and tuple(f) < tuple(best_f)):
            best_z, best_f = fit.z, f
            best_beta = fit.beta.interleaved(spec)
    return best_z, best_f, best_beta, zs


@pytest.mark.parametrize("k1,n_long", [(1, 30), (2, 25)],
                         ids=["one-signal", "two-signal"])
def test_criterion_08_scan_equals_sequential_scanner(k1, n_long):
    ts = small_series()
    stats = span_stats(ts)
    spec = ModelSpec(k1, 1, 0)
    cfg = SearchConfig(4.0, 8.0, n_long=n_long, n_short=20)
    pg = long_search(ts, spec, cfg)
    grid = np.linspace(cfg.f_min, cfg.f_max, n_long)
    z_ref, f_ref, beta_ref, zs = scan_all_ordered_tuples(ts, spec, [grid] * k1)
    assert pg.z_min == z_ref
    assert np.array_equal(pg.best, f_ref)
    fit = solve_linear(ts, spec, pg.best)
    assert np.array_equal(fit.beta.interleaved(spec), beta_ref)
    # the short stage too, over its own window grids
    sh = short_search(ts, spec, cfg, pg.best)
    z_ref, f_ref, beta_ref, _ = scan_all_ordered_tuples(ts, spec, sh.grids)
    assert sh.z_min == z_ref
    assert np.array_equal(sh.best, f_ref)
    # every z from an independent normal-equations route
    for f, z in zs:
        assert abs(z - normal_equations_z(ts, spec, f, stats)) <= 1e-10 * z


# ---------------------------------------------------------------------------
# criterion 9: worker count never changes an output byte
# ---------------------------------------------------------------------------

CONTROL = """\
data = series.dat
k1 = 1
k2 = 1
k3 = 0
pmin = 0.63
pmax = 5.70
nlong = 60
nshort = 40
nboot = 8
seed = 5
out = out
"""


def test_criterion_09_params_json_is_worker_invariant(tmp_path):
    ts = simulate(SimulationSpec(1, 60, 50, seed=5))
    outputs = []
    for workers in (1, 2, 8):
        d = tmp_path / f"w{workers}"
        d.mkdir()
        write_series(str(d / "series.dat"), ts)
        (d / "case.ctl").write_text(CONTROL, encoding="utf-8")
        assert main(["run", "--control", str(d / "case.ctl"),
                     "--workers", str(workers)]) == 0
        outputs.append((d / "out" / "params.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
    payload = json.loads(outputs[0])
    assert payload["bootstrap"]["n_ok"] >= 2


# ---------------------------------------------------------------------------
# criterion 10: reduced-scale extreme regimes
# ---------------------------------------------------------------------------

# frozen error scale of the two-signal double-harmonic reference run
# (sigma of each recovered quantity at n=1000, SN=1e6)
M7_ERR = [
    dict(period=0.00063, amplitude=0.14, t_max1=0.0039, t_min1=0.0043,
         t_max2=0.0050, t_min2=0.0067),
    dict(period=0.0034, amplitude=0.095, t_max1=0.0039, t_min1=0.0090,
         t_max2=0.0042, t_min2=0.012),
]
M7_TREND_ERR = [0.035, 0.0039, 0.035]


def test_criterion_10_model7_recovery_at_reduced_scale():
    sim = SimulationSpec(7, 1000, 1_000_000, seed=7)
    ts = simulate(sim)
    cfg = SearchConfig.from_periods(0.4, 3.6, n_long=200, n_short=200)
    a = analyze(ts, ModelSpec(2, 2, 2), cfg, NO_BOOT, workers=4)
    truth = model_truth(sim)
    for got, want, err in zip(a.summary.signals, truth.summary.signals, M7_ERR):
        for key, scale in err.items():
            assert abs(getattr(got, key) - getattr(want, key)) <= 3 * scale, \
                f"{key}: {getattr(got, key)} vs {getattr(want, key)}"
    for got, want, scale in zip(a.summary.trend, (1.0, 0.25, 0.5), M7_TREND_ERR):
        assert abs(got - want) <= 3 * scale


def test_criterion_10_model5_must_flag_not_crash():
    # the n=1e4 run fits a wrong shape; recovery may fail but the
    # bootstrap must report the instability through flags and sigmas
    sim = SimulationSpec(5, 10_000, 1000, seed=5)
    ts = simulate(sim)
    cfg = SearchConfig.from_periods(0.47, 4.2, n_long=60, n_short=60)
    a = analyze(ts, ModelSpec(2, 1, 2), cfg,
                AnalysisOptions(n_boot=6, seed=50), workers=4)
    assert a.flags
    amp_sigma = [a.boot.summary_sigma[k] for k in ("A_1", "A_2")
                 if k in a.boot.summary_sigma]
    assert amp_sigma and max(amp_sigma) > 2.0
