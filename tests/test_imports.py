"""The package imports no private module, such as scipy.integrate._ivp, and builds nothing on import."""

import ast
import subprocess
import sys
from pathlib import Path

import bracketflow

SRC = Path(bracketflow.__file__).parent


def _is_private(part: str) -> bool:
    # `__future__` and other dunder modules are public
    return part.startswith("_") and not (part.startswith("__") and part.endswith("__"))


def _private_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [m for m in modules if any(_is_private(part) for part in m.split("."))]
    return found


def test_no_import_from_a_private_module():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    offenders = {p.name: _private_imports(ast.parse(p.read_text())) for p in sources}
    assert {name: mods for name, mods in offenders.items() if mods} == {}


def test_import_builds_no_table():
    # The stacked Ricci and RHS tables, the flow's support closures and the
    # index plans they read are built on first use, so importing the package
    # (and every start-up that does) pays nothing for them.
    caches = ["_rhs_table", "_closed_table", "_ricci_table", "_half_indices", "_ricci_plan"]
    code = (
        "import bracketflow\n"
        "from bracketflow import curvature\n"
        f"print(*[getattr(curvature, name).cache_info().currsize for name in {caches!r}])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=SRC.parent, timeout=60
    )
    assert out.stdout.split() == ["0"] * len(caches)
