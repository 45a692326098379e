"""End-to-end driver tests: control files, outputs, exit codes."""

import json

import numpy as np
import pytest

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


def test_run_output_bytes_ignore_worker_count(tmp_path):
    for sub, workers in (("a", "1"), ("b", "4")):
        d = tmp_path / sub
        d.mkdir()
        make_data(d / "series.dat")
        ctl = write_control(d / "case.ctl", RUN_CTL)
        assert main(["run", "--control", ctl, "--workers", workers]) == 0
    for name in ("params.json", "bootstrap_draws.csv", "curve.csv",
                 "slice_long_1.csv"):
        a = (tmp_path / "a" / "run.out" / name).read_bytes()
        b = (tmp_path / "b" / "run.out" / name).read_bytes()
        assert a == b, name


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
