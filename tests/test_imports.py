"""The package imports no private module, such as scipy.integrate._ivp, builds nothing on import and loads no scipy."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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
    # The stacked Ricci and RHS tables, the residual forms and the index
    # plans they read are built on first use, so importing the package
    # (and every start-up that does) pays nothing for them.
    caches = ["_rhs_table", "_residual_forms", "_half_indices", "_ricci_plan"]
    code = (
        "import bracketflow\n"
        "from bracketflow import curvature\n"
        f"print(*[getattr(curvature, name).cache_info().currsize for name in {caches!r}])\n"
    )
    assert _run(code).split() == ["0"] * len(caches)


def _run(code: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=SRC.parent, timeout=60
    )
    return out.stdout


@pytest.mark.parametrize("module", ["bracketflow", "bracketflow.cli", "bracketflow.verify"])
def test_import_loads_no_scipy(module):
    # scipy loads on first use only: LAPACK with the metric flow, scipy.optimize
    # with `fit_power_blowup`; no run steps with scipy.
    code = f"import sys, {module}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    assert _run(code).split() == []


def test_metric_flow_names_load_on_first_use():
    names = ["equivalence_check", "metric_flow_integrate", "metric_ricci", "MetricState", "MetricTrajectory", "NonSPDError"]
    code = (
        "import sys, bracketflow\n"
        "loaded = 'bracketflow.metric_flow' in sys.modules\n"
        "from bracketflow import metric_flow\n"
        f"print(loaded, *[getattr(bracketflow, name) is getattr(metric_flow, name) for name in {names!r}])\n"
    )
    assert _run(code).split() == ["False"] + ["True"] * len(names)


def test_unknown_attribute_is_still_an_attribute_error():
    code = (
        "import bracketflow\n"
        "try:\n"
        "    bracketflow.metric_flow_integrat\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _run(code).strip() == "module 'bracketflow' has no attribute 'metric_flow_integrat'"
