"""Count the code lines of the Python modules under a path.

A code line is a physical line that holds part of a token other than a
comment, so blank lines, comment lines and docstrings (the string statement
that opens a module, class or function body) do not count; every line of a
statement that spans several lines does, a multi-line string included.

    python3 tools/code_lines.py [--against REV] [PATH ...]

prints each module's count and the total, for the `.py` files under each
PATH (a file or a directory, searched recursively; `src/bracketflow` by
default).  With --against REV it prints, for each module under the PATHs
at the git revision REV or here, its count at REV, here and the change
(`-` where the module is missing on one side, counted as 0), then the
totals.  REV's modules are read with `git ls-tree` and `git show`, so no
checkout of REV is made; the PATHs are taken relative to the current
directory, which must lie in the repository.

    python3 tools/code_lines.py --against origin/main
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _here(root: Path) -> dict[Path, str]:
    return {path: path.read_text() for path in ([root] if root.is_file() else sorted(root.rglob("*.py")))}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def _at(rev: str, root: Path) -> dict[Path, str]:
    names = _git("ls-tree", "-r", "--name-only", rev, "--", str(root)).splitlines()
    return {Path(name): _git("show", f"{rev}:./{name}") for name in names if name.endswith(".py")}


def _cell(count: int | None) -> str:
    return f"{'-' if count is None else count:>6}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of the Python modules under each PATH.")
    parser.add_argument("--against", metavar="REV", help="also count them at the git revision REV, and the change")
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src/bracketflow")], metavar="PATH")
    args = parser.parse_args(argv)
    here = {path: code_lines(text) for root in args.paths for path, text in _here(root).items()}
    if args.against is None:
        for path, count in here.items():
            print(f"{count:6d}  {path}")
        print(f"{sum(here.values()):6d}  total")
        return 0
    old = {path: code_lines(text) for root in args.paths for path, text in _at(args.against, root).items()}
    print(f"{'rev':>6} {'here':>6} {'delta':>6}")
    for path in sorted(old.keys() | here.keys()):
        a, b = old.get(path), here.get(path)
        print(f"{_cell(a)} {_cell(b)} {(b or 0) - (a or 0):+6d}  {path}")
    a, b = sum(old.values()), sum(here.values())
    print(f"{a:6d} {b:6d} {b - a:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
