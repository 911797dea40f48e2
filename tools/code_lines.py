"""Count the code lines of the Python modules under a path.

A code line is a physical line that holds part of a token other than a
comment, so blank lines, comment lines and docstrings (the string statement
that opens a module, class or function body) do not count; every line of a
statement that spans several lines does, a multi-line string included.

    python3 tools/code_lines.py [PATH ...]

prints each module's count and the total, for the `.py` files under each
PATH (a file or a directory, searched recursively; `src/bracketflow` by
default).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text `source`."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    total = 0
    for root in [Path(p) for p in argv] or [Path("src/bracketflow")]:
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            count = code_lines(path.read_text())
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
