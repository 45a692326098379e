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
