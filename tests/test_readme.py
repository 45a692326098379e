"""The README's Python examples run as documented."""

import re
from pathlib import Path

from dcmethod import SimulationSpec, default_filename, simulate, write_series

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(monkeypatch, tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    sim = SimulationSpec(1, 100, 100, 0)
    write_series(tmp_path / default_filename(sim), simulate(sim))
    monkeypatch.chdir(tmp_path)
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
