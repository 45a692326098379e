"""The benchmark's tracer patches program functions by name.

bench/tracer.py wraps names such as ``gridsearch.design_solver``,
``refine.fit_columns`` and ``refine.solve_linear`` that the program
keeps importable for it alone.  A deleted one fails the tracer at
install, which only a traced benchmark run would otherwise see.
"""

import importlib
import os

import pytest

import dcmethod.cli  # noqa: F401  (the tracer resolves names in loaded modules)
from dcmethod import MODELS, SimulationSpec, simulate, write_series

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.mark.skipif(not os.path.isfile(os.path.join(BENCH, "tracer.py")),
                    reason="no bench/ directory in this checkout")
def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def _files(out_dir):
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


@pytest.mark.skipif(not os.path.isfile(os.path.join(BENCH, "tracer.py")),
                    reason="no bench/ directory in this checkout")
def test_tracing_never_changes_an_output_byte(monkeypatch, tmp_path):
    # one small `dcm run`, untraced and with the tracer installed, both at
    # two workers: every fit.out file must match byte for byte
    monkeypatch.syspath_prepend(BENCH)
    tracer_mod = importlib.import_module("tracer")
    write_series(tmp_path / "series.dat", simulate(SimulationSpec(1, 100, 100, 3)))
    pmin, pmax = MODELS[1].period_range
    control = ("data = ../series.dat\nk1 = 1\nk2 = 1\nk3 = 0\n"
               f"pmin = {pmin!r}\npmax = {pmax!r}\nnlong = 40\nnshort = 40\n"
               "nboot = 6\nseed = 5\n")
    tracer = tracer_mod.Tracer()
    outputs = {}
    for name in ("plain", "traced"):
        (tmp_path / name).mkdir()
        ctl = tmp_path / name / "fit.ctl"
        ctl.write_text(control)
        argv = ["run", "--control", str(ctl), "--workers", "2"]
        if name == "plain":
            assert dcmethod.cli.main(argv) == 0
        else:
            tracer.install()
            try:
                assert tracer.wrap(dcmethod.cli.main, "cli.main")(argv) == 0
            finally:
                tracer.uninstall()
        outputs[name] = _files(tmp_path / name / "fit.out")

    assert "params.json" in outputs["plain"]
    assert outputs["traced"] == outputs["plain"]
    # the tracer read the round count from scan_rounds' fourth argument
    spans = tracer.dump()
    assert [s["attrs"]["rounds"] for s in spans
            if s["name"] == "gridsearch.scan_rounds"] == [6]
    metrics = tracer_mod.layer_metrics(spans, tracer.counts, 2,
                                       tracer_mod.max_iter_default())
    assert metrics["refine.rounds_failed"] == 0
