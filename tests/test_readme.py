"""The README's examples run as documented."""

import inspect
import re
import textwrap
from pathlib import Path

import dcmethod
from dcmethod import (SimulationSpec, default_filename, gridsearch, linfit, simulate,
                      write_series)
from dcmethod.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(monkeypatch, tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    sim = SimulationSpec(1, 100, 100, 0)
    write_series(tmp_path / default_filename(sim), simulate(sim))
    monkeypatch.chdir(tmp_path)
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_quick_start_runs_as_written(monkeypatch, tmp_path):
    text = README.read_text()
    section = text[text.index("## Quick start"):text.index("## Control files")]
    files = re.findall(r"^    cat > (\S+) <<'EOF'\n(.*?)^    EOF$", section, re.M | re.S)
    commands = re.findall(r"^    dcm (\w+ --control \S+(?: --workers \d+)?)$",
                          section, re.M)
    out = re.search(r"writes `(\S+)/`", section).group(1)
    listed = re.findall(r"^    (\w+\.(?:json|csv))\b", section, re.M)
    assert len(files) == 2 and len(commands) == 2 and listed
    monkeypatch.chdir(tmp_path)
    for name, body in files:
        Path(name).write_text(textwrap.dedent(body))
    for command in commands:
        assert main(command.split()) == 0, command
    for name in listed:
        assert (tmp_path / out / name).is_file(), name


def test_readme_signature_block_matches_the_library():
    # each entry, read as `def <entry>: pass`, has the parameter names,
    # kinds and defaults of the function it names
    text = README.read_text()
    block = text[text.index("Every entry that takes the series"):text.index("These twelve")]
    entries = re.findall(r"^    (\w+\(.*?\))$", block, re.M | re.S)
    assert len(entries) == 12
    for entry in entries:
        name = entry[:entry.index("(")]
        scope = dict(vars(dcmethod))
        exec(f"def {entry}: pass", scope)
        want = inspect.signature(scope[name])
        module = next(m for m in (dcmethod, linfit, gridsearch) if hasattr(m, name))
        got = inspect.signature(getattr(module, name))
        assert ([(p.name, p.kind, p.default) for p in want.parameters.values()]
                == [(p.name, p.kind, p.default) for p in got.parameters.values()]), name
