"""The package imports no private module, such as scipy.integrate._ivp."""

import ast
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
