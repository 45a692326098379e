"""End-to-end driver tests: control files, outputs, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dcmethod
from dcmethod.cli import main
from dcmethod.simulate import SimulationSpec, simulate
from dcmethod.timeseries import load_series, write_series


def write_control(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def make_data(path, model=1, n=40, sn=20, seed=9):
    ts = simulate(SimulationSpec(model, n, sn, seed=seed))
    write_series(str(path), ts)
    return ts


RUN_CTL = """\
# one-signal fit
data = series.dat
k1 = 1
k2 = 1
k3 = 0
pmin = 0.63
pmax = 5.70
nlong = 40
nshort = 30
nboot = 6
seed = 9
out = run.out
"""


def test_run_writes_the_full_output_set(tmp_path, capsys):
    make_data(tmp_path / "series.dat")
    ctl = write_control(tmp_path / "case.ctl", RUN_CTL)
    assert main(["run", "--control", ctl]) == 0
    out = tmp_path / "run.out"
    for name in ("params.json", "residuals.csv", "curve.csv",
                 "slice_long_1.csv", "slice_short_1.csv",
                 "bootstrap_draws.csv"):
        assert (out / name).exists(), name
    payload = json.loads((out / "params.json").read_text())
    assert payload["model"]["label"] == "g(1,1,0)"
    assert payload["weighting"] == "chi-square"
    assert "f_1" in payload["refined"]["parameters"]
    assert payload["bootstrap"]["n_ok"] >= 2
    assert payload["search_long"]["combinations"] == 40
    assert "run: g(1,1,0)" in capsys.readouterr().out
    # residuals.csv has one row per point
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[2] == "t,y,model,residual"
    assert len(lines) == 3 + 40


def test_run_without_ordered_long_tuple_exits_one(tmp_path, capsys):
    # three signals on a two-point long grid: no f_1 > f_2 > f_3 exists
    make_data(tmp_path / "series.dat")
    text = RUN_CTL.replace("k1 = 1", "k1 = 3").replace("nlong = 40", "nlong = 2")
    ctl = write_control(tmp_path / "case.ctl", text)
    assert main(["run", "--control", ctl]) == 1
    assert "no ordered frequency tuple" in capsys.readouterr().err
    assert not (tmp_path / "run.out").exists()


def test_run_output_bytes_ignore_worker_count(tmp_path):
    # every output file; with k1 = 2 the slices of both signals come
    # from the engine's parallel slice chunks
    for k1 in (1, 2):
        for sub, workers in (("a", "1"), ("b", "4")):
            d = tmp_path / f"k{k1}{sub}"
            d.mkdir()
            make_data(d / "series.dat")
            ctl = write_control(d / "case.ctl", RUN_CTL.replace("k1 = 1", f"k1 = {k1}"))
            assert main(["run", "--control", ctl, "--workers", workers]) == 0
        names = sorted(p.name for p in (tmp_path / f"k{k1}a" / "run.out").iterdir())
        assert names == sorted(p.name for p in (tmp_path / f"k{k1}b" / "run.out").iterdir())
        assert {f"slice_{stage}_{i}.csv" for stage in ("long", "short")
                for i in range(1, k1 + 1)} <= set(names)
        assert "bootstrap_draws.csv" in names
        for name in names:
            a = (tmp_path / f"k{k1}a" / "run.out" / name).read_bytes()
            b = (tmp_path / f"k{k1}b" / "run.out" / name).read_bytes()
            assert a == b, (k1, name)


def test_row_order_never_changes_a_run(tmp_path):
    # times rounded to 0.01, so that rows tie; rows 0 and 1 also tie in y
    # and differ only in sigma
    ts = simulate(SimulationSpec(1, 40, 20, seed=9))
    rows = np.stack([np.round(ts.t, 2), ts.y, ts.sigma], axis=1)
    rows[1] = rows[0] * [1.0, 1.0, 2.0]
    assert np.unique(rows[:, 0]).size <= 32
    rng = np.random.default_rng(4)
    series, outputs = [], []
    for sub in ("a", "b", "c"):
        d = tmp_path / sub
        d.mkdir()
        shuffled = rows[rng.permutation(len(rows))].tolist()
        (d / "series.dat").write_text(
            "".join(" ".join(map(repr, row)) + "\n" for row in shuffled))
        series.append(load_series(d / "series.dat"))
        assert main(["run", "--control", write_control(d / "case.ctl", RUN_CTL)]) == 0
        outputs.append({p.name: p.read_bytes() for p in (d / "run.out").iterdir()})
    for loaded, out in zip(series[1:], outputs[1:]):
        for name in ("t", "y", "sigma"):
            assert np.array_equal(getattr(loaded, name), getattr(series[0], name)), name
        assert out == outputs[0]


TREND_CTL = """\
data = series.dat
k1 = 0
k2 = 1
k3 = 2
nboot = 4
seed = 3
out = run.out
"""


def test_pure_trend_run_needs_no_range(tmp_path):
    # no scan runs for k1 = 0; without a range params.json has no
    # "search" entry and is otherwise what the ranged run writes
    for sub, text in (("plain", TREND_CTL), ("ranged", TREND_CTL + "pmin = 0.63\npmax = 5.70\n")):
        d = tmp_path / sub
        d.mkdir()
        make_data(d / "series.dat")
        assert main(["run", "--control", write_control(d / "case.ctl", text)]) == 0
    plain = json.loads((tmp_path / "plain" / "run.out" / "params.json").read_text())
    ranged = json.loads((tmp_path / "ranged" / "run.out" / "params.json").read_text())
    assert "search" not in plain
    assert ranged.pop("search")["n_long"] == 200
    assert plain == ranged
    for name in ("residuals.csv", "curve.csv", "bootstrap_draws.csv"):
        assert ((tmp_path / "plain" / "run.out" / name).read_bytes()
                == (tmp_path / "ranged" / "run.out" / name).read_bytes()), name


def test_signal_run_without_range_exits_three(tmp_path, capsys):
    make_data(tmp_path / "series.dat")
    text = RUN_CTL.replace("pmin = 0.63\n", "").replace("pmax = 5.70\n", "")
    ctl = write_control(tmp_path / "case.ctl", text)
    assert main(["run", "--control", ctl]) == 3
    assert "exactly one range pair" in capsys.readouterr().err
    assert not (tmp_path / "run.out").exists()


def test_polish_stop_reason_stays_out_of_params_json(tmp_path):
    make_data(tmp_path / "series.dat")
    ctl = write_control(tmp_path / "case.ctl", RUN_CTL)
    assert main(["run", "--control", ctl]) == 0
    text = (tmp_path / "run.out" / "params.json").read_text()
    assert "converged" in json.loads(text)["refined"]
    assert '"stop"' not in text
    for reason in ("grad", "z-tol", "no-descent", "max-iter"):
        assert f'"{reason}"' not in text


def test_run_strict_exits_one_on_flags(tmp_path, capsys):
    # a two-signal shape on one-signal data destabilises the bootstrap
    ts = simulate(SimulationSpec(1, 40, 5, seed=1))
    write_series(str(tmp_path / "series.dat"), ts)
    text = RUN_CTL.replace("k1 = 1", "k1 = 2").replace("nboot = 6", "nboot = 8")
    text = text.replace("seed = 9", "seed = 60")
    ctl = write_control(tmp_path / "case.ctl", text)
    assert main(["run", "--control", ctl]) == 0
    assert "flags:" in capsys.readouterr().out
    assert main(["run", "--control", ctl, "--strict"]) == 1


def test_seed_flag_overrides_the_control_file(tmp_path):
    make_data(tmp_path / "series.dat")
    ctl = write_control(tmp_path / "case.ctl", RUN_CTL)
    assert main(["run", "--control", ctl, "--seed", "123"]) == 0
    payload = json.loads((tmp_path / "run.out" / "params.json").read_text())
    assert payload["bootstrap"]["seed"] == 123


# ---------------------------------------------------------------------------
# control file validation
# ---------------------------------------------------------------------------

def test_unknown_key_is_rejected(tmp_path, capsys):
    make_data(tmp_path / "series.dat")
    ctl = write_control(tmp_path / "case.ctl", RUN_CTL + "typo_key = 1\n")
    assert main(["run", "--control", ctl]) == 3
    err = capsys.readouterr().err
    assert "typo_key" in err and "unknown keys" in err
    assert not (tmp_path / "run.out").exists()


def test_duplicate_key_is_rejected(tmp_path, capsys):
    ctl = write_control(tmp_path / "case.ctl", RUN_CTL + "k1 = 2\n")
    assert main(["run", "--control", ctl]) == 3
    assert "duplicate" in capsys.readouterr().err


def test_malformed_line_is_rejected(tmp_path, capsys):
    ctl = write_control(tmp_path / "case.ctl", "data series.dat\n")
    assert main(["run", "--control", ctl]) == 3
    assert "key = value" in capsys.readouterr().err


def test_both_range_pairs_conflict(tmp_path, capsys):
    make_data(tmp_path / "series.dat")
    ctl = write_control(tmp_path / "case.ctl",
                        RUN_CTL + "fmin = 0.1\nfmax = 2.0\n")
    assert main(["run", "--control", ctl]) == 3
    assert "exactly one range pair" in capsys.readouterr().err


def test_half_range_pair_is_rejected(tmp_path, capsys):
    make_data(tmp_path / "series.dat")
    text = RUN_CTL.replace("pmax = 5.70\n", "")
    ctl = write_control(tmp_path / "case.ctl", text)
    assert main(["run", "--control", ctl]) == 3
    assert "belong together" in capsys.readouterr().err


def test_missing_control_file(tmp_path, capsys):
    assert main(["run", "--control", str(tmp_path / "none.ctl")]) == 3
    assert "cannot open control file" in capsys.readouterr().err


def test_missing_data_file_exits_two(tmp_path, capsys):
    ctl = write_control(tmp_path / "case.ctl", RUN_CTL)
    assert main(["run", "--control", ctl]) == 2
    assert "series.dat" in capsys.readouterr().err
    assert not (tmp_path / "run.out").exists()


def test_bad_worker_count(tmp_path, capsys):
    ctl = write_control(tmp_path / "case.ctl", RUN_CTL)
    assert main(["run", "--control", ctl, "--workers", "0"]) == 3


def test_relative_paths_resolve_against_the_control_file(tmp_path, monkeypatch):
    sub = tmp_path / "deep"
    sub.mkdir()
    make_data(sub / "series.dat")
    ctl = write_control(sub / "case.ctl", RUN_CTL)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--control", str(ctl)]) == 0
    assert (sub / "run.out" / "params.json").exists()


def _no_load(monkeypatch):
    """Calls of ``load_series`` from the driver, recorded, not run."""
    import dcmethod.cli as cli
    calls = []
    monkeypatch.setattr(cli, "load_series", lambda *a: calls.append(a))
    return calls


@pytest.mark.parametrize("key, value, where", [
    ("nlong", "1", ": 'pmin' (line 5), 'pmax' (line 6), 'nlong' (line 7): "
                   "grids need at least 2 points"),
    ("nboot", "-1", ":7: bad value for 'nboot': n_boot must be >= 0"),
    ("halfwidth", "0", ": 'pmin' (line 5), 'pmax' (line 6), 'halfwidth' (line 7): "
                       "half_width_frac must be > 0"),
    ("k2", "0", ": 'k1' (line 2), 'k2' (line 3), 'k3' (line 4): k2 must be >= 1"),
    ("pmin", "6", ": 'pmin' (line 5), 'pmax' (line 6): need 0 < p_min < p_max"),
], ids=["nlong", "nboot", "halfwidth", "k2", "pmin"])
def test_constructor_errors_name_the_lines_of_their_keys(tmp_path, capsys, monkeypatch,
                                                         key, value, where):
    # SearchConfig, AnalysisOptions and ModelSpec each check values read
    # from several keys; their errors name every such key the file gives
    keys = {"data": "series.dat", "k1": "1", "k2": "1", "k3": "0",
            "pmin": "0.63", "pmax": "5.7"}
    keys[key] = value
    ctl = write_control(tmp_path / "case.ctl",
                        "".join(f"{k} = {v}\n" for k, v in keys.items()))
    loads = _no_load(monkeypatch)
    assert main(["run", "--control", ctl]) == 3
    assert capsys.readouterr().err == f"error: {ctl}{where}\n"
    assert not loads
    assert not (tmp_path / "case.out").exists()


# ---------------------------------------------------------------------------
# the weighting key: resolved into the analysed series, once
# ---------------------------------------------------------------------------

WEIGHTING_CTLS = {
    "run": RUN_CTL,
    "ladder": """\
data = series.dat
models = 1,1,0; 1,1,1
pmin = 0.63
pmax = 5.70
nlong = 24
nshort = 16
nboot = 4
seed = 2
""",
    "predict": """\
data = series.dat
models = 1,1,0; 0,1,1
split = 30
pmin = 0.63
pmax = 5.70
nlong = 24
nshort = 16
""",
}


@pytest.mark.parametrize("line", ["", "weighting = auto\n"], ids=["absent", "auto"])
@pytest.mark.parametrize("sigma", [True, False], ids=["sigma", "no-sigma"])
def test_weighting_key_auto_or_absent_follows_the_sigma_column(tmp_path, line, sigma):
    ts = simulate(SimulationSpec(1, 40, 20, seed=9))
    write_series(str(tmp_path / "series.dat"),
                 ts if sigma else dcmethod.TimeSeries(ts.t, ts.y))
    text = RUN_CTL.replace("nboot = 6", "nboot = 0") + line
    assert main(["run", "--control", write_control(tmp_path / "case.ctl", text)]) == 0
    payload = json.loads((tmp_path / "run.out" / "params.json").read_text())
    assert payload["weighting"] == ("chi-square" if sigma else "unweighted")
    assert (payload["refined"]["chi2"] is None) == (not sigma)


@pytest.mark.parametrize("verb", ["run", "ladder", "predict"])
def test_unweighted_key_matches_the_series_without_sigma(tmp_path, verb):
    # every output byte of `weighting = unweighted` on a weighted series
    # is that of the same rows written without their sigma column
    ts = simulate(SimulationSpec(1, 40, 20, seed=9))
    outputs = []
    for sub, series, line in (("keyed", ts, "weighting = unweighted\n"),
                              ("plain", dcmethod.TimeSeries(ts.t, ts.y), "")):
        d = tmp_path / sub
        d.mkdir()
        write_series(str(d / "series.dat"), series)
        ctl = write_control(d / "case.ctl", WEIGHTING_CTLS[verb] + line)
        assert main([verb, "--control", ctl]) == 0
        out = d / ("run.out" if verb == "run" else "case.out")
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] and outputs[0] == outputs[1]


def test_chi_square_key_needs_a_sigma_column(tmp_path, capsys):
    ts = simulate(SimulationSpec(1, 40, 20, seed=9))
    write_series(str(tmp_path / "series.dat"), dcmethod.TimeSeries(ts.t, ts.y))
    ctl = write_control(tmp_path / "case.ctl", RUN_CTL + "weighting = chi-square\n")
    assert main(["run", "--control", ctl]) == 3
    assert "chi-square weighting needs a sigma column" in capsys.readouterr().err
    assert not (tmp_path / "run.out").exists()


@pytest.mark.parametrize("verb", ["run", "ladder", "predict"])
def test_bad_weighting_value_names_its_line(tmp_path, capsys, monkeypatch, verb):
    text = WEIGHTING_CTLS[verb] + "weighting = quadrature\n"
    ctl = write_control(tmp_path / "case.ctl", text)
    loads = _no_load(monkeypatch)
    assert main([verb, "--control", ctl]) == 3
    line = text.count("\n")
    assert capsys.readouterr().err == (
        f"error: {ctl}:{line}: bad value for 'weighting': "
        "expected auto, unweighted or chi-square, got 'quadrature'\n")
    assert not loads


def test_dft_rejects_the_weighting_key(tmp_path, capsys):
    ctl = write_control(tmp_path / "scan.ctl", "data = series.dat\nfmin = 1.0\n"
                        "fmax = 6.0\nweighting = unweighted\n")
    assert main(["dft", "--control", ctl]) == 3
    assert "unknown keys: 'weighting' (line 4)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# other verbs
# ---------------------------------------------------------------------------

def test_dft_outputs(tmp_path, capsys):
    # three full cycles across the span, a clean single detection
    from dcmethod.timeseries import TimeSeries
    rng = np.random.default_rng(6)
    t = np.sort(rng.random(80))
    t[0], t[-1] = 0.0, 1.0
    y = np.cos(2 * np.pi * 3.0 * (t - 0.2)) + 0.3 + rng.normal(0, 0.05, 80)
    write_series(str(tmp_path / "series.dat"), TimeSeries(t, y))
    ctl = write_control(tmp_path / "scan.ctl", """\
data = series.dat
fmin = 1.0
fmax = 6.0
signals = 1
oversample = 12
""")
    assert main(["dft", "--control", ctl]) == 0
    out = tmp_path / "scan.out"
    assert (out / "dft_pass_1.csv").exists()
    payload = json.loads((out / "dft.json").read_text())
    assert len(payload["passes"]) == 1
    assert payload["passes"][0]["frequency"] == pytest.approx(3.0, abs=0.1)
    assert "dft: 1 pass(es)" in capsys.readouterr().out


def test_ladder_outputs(tmp_path, capsys):
    make_data(tmp_path / "series.dat", n=100, sn=100, seed=1)
    ctl = write_control(tmp_path / "ladder.ctl", """\
data = series.dat
models = 1,1,-1; 1,1,0; 1,1,1
pmin = 0.63
pmax = 5.70
nlong = 60
nshort = 40
nboot = 0
""")
    assert main(["ladder", "--control", ctl]) == 0
    payload = json.loads((tmp_path / "ladder.out" / "ladder.json").read_text())
    assert payload["best"] == ["g(1,1,0)"]
    assert payload["ambiguous"] is False
    assert len(payload["entries"]) == 3
    assert len(payload["comparisons"]) == 3
    assert "ladder: best g(1,1,0)" in capsys.readouterr().out


def test_predict_outputs(tmp_path, capsys):
    make_data(tmp_path / "series.dat", n=50, sn=50, seed=2)
    ctl = write_control(tmp_path / "pred.ctl", """\
data = series.dat
models = 1,1,0
split = 40
pmin = 0.63
pmax = 5.70
nlong = 40
nshort = 30
""")
    assert main(["predict", "--control", ctl]) == 0
    out = tmp_path / "pred.out"
    payload = json.loads((out / "predict.json").read_text())
    rep = payload["reports"][0]
    assert (rep["n_fit"], rep["n_pred"]) == (40, 10)
    assert rep["z_pred"] > 0
    lines = (out / "predict_residuals.csv").read_text().splitlines()
    assert len(lines) == 3 + 10
    assert "predict:" in capsys.readouterr().out


def test_ladder_and_predict_with_a_pure_trend_ignore_worker_count(tmp_path):
    # k1 = 0 shapes next to a signal shape, bootstrapped in the ladder
    controls = {
        "ladder": """\
data = series.dat
models = 0,1,1; 1,1,0
pmin = 0.63
pmax = 5.70
nlong = 40
nshort = 30
nboot = 4
seed = 3
""",
        "predict": """\
data = series.dat
models = 0,1,0; 1,1,0
split = 40
pmin = 0.63
pmax = 5.70
nlong = 40
nshort = 30
""",
    }
    for sub, workers in (("a", "1"), ("b", "4")):
        d = tmp_path / sub
        d.mkdir()
        make_data(d / "series.dat", n=50, sn=50, seed=2)
        for verb, text in controls.items():
            ctl = write_control(d / f"{verb}.ctl", text)
            assert main([verb, "--control", ctl, "--workers", workers]) == 0
    names = sorted(p.relative_to(tmp_path / "a")
                   for p in (tmp_path / "a").glob("*.out/*"))
    assert [str(n) for n in names] == [
        "ladder.out/ladder.json", "predict.out/predict.json",
        "predict.out/predict_residuals.csv"]
    for name in names:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes()), name
    ladder = json.loads((tmp_path / "a" / "ladder.out" / "ladder.json").read_text())
    assert [e["label"] for e in ladder["entries"]] == ["g(0,1,1)", "g(1,1,0)"]


def test_predict_requires_one_split_form(tmp_path, capsys):
    make_data(tmp_path / "series.dat")
    ctl = write_control(tmp_path / "pred.ctl", """\
data = series.dat
models = 1,1,0
split = 30
split_time = 0.5
pmin = 0.63
pmax = 5.70
""")
    assert main(["predict", "--control", ctl]) == 3
    assert "split" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("window", "a, b", "could not convert string to float: 'a'"),
    ("window", "2, 1", "need t_b > t_a"),
    ("window", "1, 2, 3", "expected 't_a, t_b'"),
    ("window_points", "0", "expected an integer >= 1"),
])
def test_predict_window_is_checked_before_any_analysis(tmp_path, capsys, monkeypatch,
                                                       key, value, message):
    import dcmethod.cli as cli
    calls = []
    monkeypatch.setattr(cli, "prediction_test", lambda *a, **kw: calls.append(a))
    make_data(tmp_path / "series.dat")
    ctl = write_control(tmp_path / "pred.ctl", """\
data = series.dat
models = 1,1,0
split = 30
pmin = 0.63
pmax = 5.70
""" + f"{key} = {value}\n")
    assert main(["predict", "--control", ctl]) == 3
    err = capsys.readouterr().err
    assert f"pred.ctl:6: bad value for {key!r}" in err
    assert message in err
    assert not calls
    assert not (tmp_path / "pred.out").exists()


def _rejected_models(tmp_path, capsys, monkeypatch, verb, entry, models):
    """stderr of ``dcm <verb>`` given ``models``, checked to exit 3 with
    the key's line before any analysis or output directory."""
    import dcmethod.cli as cli
    calls = []
    monkeypatch.setattr(cli, entry, lambda *a, **kw: calls.append(a))
    make_data(tmp_path / "series.dat")
    ctl = write_control(tmp_path / "case.ctl", f"""\
data = series.dat
models = {models}
pmin = 0.63
pmax = 5.70
""" + ("split = 30\n" if verb == "predict" else ""))
    assert main([verb, "--control", ctl]) == 3
    err = capsys.readouterr().err
    assert "case.ctl:2: bad value for 'models'" in err
    assert not calls
    assert not (tmp_path / "case.out").exists()
    return err


@pytest.mark.parametrize("verb, entry", [("ladder", "model_ladder"),
                                         ("predict", "prediction_test")])
def test_repeated_model_shape_is_rejected_before_any_analysis(tmp_path, capsys,
                                                              monkeypatch, verb, entry):
    err = _rejected_models(tmp_path, capsys, monkeypatch, verb, entry,
                           "1,1,0; 2,1,0; 1,1,0")
    assert "duplicate model shape g(1,1,0)" in err


@pytest.mark.parametrize("verb, entry", [("ladder", "model_ladder"),
                                         ("predict", "prediction_test")])
def test_invalid_model_shape_is_rejected_with_its_line(tmp_path, capsys,
                                                       monkeypatch, verb, entry):
    # ModelSpec raises ConfigError, not ValueError, inside the converter
    err = _rejected_models(tmp_path, capsys, monkeypatch, verb, entry, "1,1,0; 1,0,0")
    assert "k2 must be >= 1" in err


def test_simulate_writes_series_and_truth(tmp_path, capsys):
    ctl = write_control(tmp_path / "sim.ctl", """\
model = 1
n = 40
sn = 20
seed = 9
""")
    assert main(["simulate", "--control", ctl]) == 0
    data = tmp_path / "Model1n40SN20.dat"
    assert data.exists()
    loaded = load_series(str(data))
    direct = simulate(SimulationSpec(1, 40, 20, seed=9))
    assert np.array_equal(loaded.t, direct.t)
    assert np.array_equal(loaded.y, direct.y)
    assert np.array_equal(loaded.sigma, direct.sigma)
    truth = json.loads((tmp_path / "Model1n40SN20.truth.json").read_text())
    assert truth["seed"] == 9
    assert truth["parameters"]["M_0"] == 1.0
    assert truth["signals"][0]["period"] == pytest.approx(1.9, rel=1e-15)
    assert "simulate: wrote" in capsys.readouterr().out


def test_simulate_explicit_file_and_seed_override(tmp_path):
    ctl = write_control(tmp_path / "sim.ctl", """\
model = 2
n = 30
sn = 10
out = custom/name.dat
""")
    assert main(["simulate", "--control", ctl, "--seed", "11"]) == 0
    assert (tmp_path / "custom" / "name.dat").exists()
    truth = json.loads((tmp_path / "custom" / "name.truth.json").read_text())
    assert truth["seed"] == 11
    assert truth["model"] == 2


STARTUP_PROBE = """\
import json, sys
import dcmethod.cli as cli
preloaded = "numpy.random" in sys.modules
rc = cli.main(["run", "--control", sys.argv[1]])
scipy_after_run = "scipy" in sys.modules
polynomial_after_run = "numpy.polynomial" in sys.modules
from dcmethod.selection import ModelScore, fisher_test
cmp = fisher_test(ModelScore("a", 3, 10.0), ModelScore("b", 5, 8.0), 40)
import scipy.special
exact = cmp.q_f == float(scipy.special.fdtrc(cmp.nu1, cmp.nu2, cmp.f_value))
print(json.dumps({"preloaded": preloaded, "rc": rc, "scipy": scipy_after_run,
                  "polynomial": polynomial_after_run,
                  "q_f": cmp.q_f, "exact": exact}))
"""


def test_run_starts_without_scipy(tmp_path):
    # a fresh interpreter: `dcm run` (bootstrap included) never loads
    # SciPy or numpy.polynomial, the NumPy submodules it uses load with
    # the CLI, and the F test still gets its tail probability from
    # SciPy's fdtrc
    make_data(tmp_path / "series.dat")
    ctl = write_control(tmp_path / "case.ctl", RUN_CTL)
    # the child imports the same dcmethod as this process
    src = os.path.dirname(os.path.dirname(dcmethod.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE, ctl], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rc"] == 0
    assert got["preloaded"] is True
    assert got["scipy"] is False
    assert got["polynomial"] is False
    assert 1e-3 < got["q_f"] < 1.0
    assert got["exact"] is True
