"""Line and code-line counts of the Python files under a directory.

    python3 tools/loc.py src

Prints the total of each over every ``.py`` file under the directory.
A code line is a non-blank line that is neither a comment line nor part
of a module, class or function docstring.  A string expression that is
not the first statement of its body is code, like any other statement.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers (1-based) of every module, class and function
    docstring in ``tree``."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, kinds) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one file's source."""
    text = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code = sum(1 for i, line in enumerate(text, 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)
    return len(text), code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not Path(args[0]).is_dir():
        print("usage: loc.py DIRECTORY", file=sys.stderr)
        return 2
    lines = code = 0
    for path in sorted(Path(args[0]).rglob("*.py")):
        n, c = count(path.read_text())
        lines, code = lines + n, code + c
    print(f"{args[0]}: {lines:,} lines, {code:,} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
