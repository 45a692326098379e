"""tools/loc.py, the line and code-line counts quoted for ``src/``."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

# 23 lines; the 8 marked "code" are the code lines
FIXTURE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import os  # code


    # a comment line
    class Thing:  # code
        """Class docstring."""

        def method(self):  # code
            """Function docstring,

            with a blank line inside."""
            # another comment
            "a string statement, not a docstring"  # code
            return os.sep  # code


    async def run():  # code
        """Async docstring."""
        return (  # code
            1)  # code
    ''')


def test_counts_leave_out_blanks_comments_and_docstrings():
    assert loc.count(FIXTURE) == (23, 8)


def test_main_totals_every_file_under_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path}: 26 lines, 9 code lines\n"
