"""The package calls `np.einsum` only in the Koszul oracle of `curvature`.

Every other contraction is written as matrix products on reshaped views;
an `einsum` elsewhere would bring back an O(d^5) or O(d^6) loop without
anyone noticing.  The oracle stays `einsum` on purpose: it is the route to
Ricci that shares no code with the algebraic one.

The same scan keeps the flows off the stepper's undocumented state: neither
`flow.py` nor `metric_flow.py` reads an attribute `f` (the last-stage
derivative) off anything.  And both flows step with the package's own
Dormand-Prince class: no module imports scipy's `RK45` or anything from
`scipy.integrate._ivp`.
"""

import ast
from pathlib import Path

import bracketflow
from bracketflow import flow, metric_flow
from bracketflow.stepper import DormandPrince54

SRC = Path(bracketflow.__file__).parent
ALLOWED = {("curvature.py", "_koszul_pieces"), ("curvature.py", "koszul_ricci_oracle")}


class _EinsumCalls(ast.NodeVisitor):
    """Names of the innermost functions that call `einsum`, one per call."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "einsum":
            self.found.append(self.scope[-1])
        self.generic_visit(node)


def _einsum_callers() -> set[tuple[str, str]]:
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _EinsumCalls()
        visitor.visit(ast.parse(path.read_text()))
        callers |= {(path.name, fn) for fn in visitor.found}
    return callers


def test_einsum_only_in_the_koszul_oracle():
    callers = _einsum_callers()
    assert callers - ALLOWED == set()
    # the oracle's own calls are seen, so the scan does find einsum
    assert callers == ALLOWED


def test_scan_sees_attribute_and_bare_calls():
    visitor = _EinsumCalls()
    visitor.visit(ast.parse("def f(a):\n    return np.einsum('ii', a)\n\ndef g(a):\n    return einsum('ii', a)\n"))
    assert visitor.found == ["f", "g"]


def _f_reads(source: str) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "f" and isinstance(node.ctx, ast.Load)
    ]


def test_flows_read_no_f_off_a_solver():
    assert {name: _f_reads((SRC / name).read_text()) for name in ("flow.py", "metric_flow.py")} == {
        "flow.py": [],
        "metric_flow.py": [],
    }
    assert _f_reads("def on_step(solver):\n    return solver.f\n") == [2]


def _scipy_stepper_imports(source: str) -> list[str]:
    """`module:name` of every import of scipy's RK45 or of scipy.integrate._ivp."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.integrate._ivp")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            module = node.module
            found += [
                f"{module}:{a.name}"
                for a in node.names
                if module.startswith("scipy.integrate._ivp") or a.name in ("RK45", "_ivp")
            ]
    return found


def test_no_module_imports_scipys_stepper():
    found = {p.name: _scipy_stepper_imports(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert "stepper.py" in found
    assert {name: imports for name, imports in found.items() if imports} == {}
    # the scan sees each form of the import
    probe = (
        "from scipy.integrate import RK45, DenseOutput\n"
        "from scipy.integrate._ivp.rk import rk_step\n"
        "import scipy.integrate._ivp.common\n"
        "from scipy.integrate import _ivp\n"
    )
    assert _scipy_stepper_imports(probe) == [
        "scipy.integrate:RK45",
        "scipy.integrate._ivp.rk:rk_step",
        "scipy.integrate._ivp.common",
        "scipy.integrate:_ivp",
    ]


def test_both_flows_step_with_the_package_class():
    assert flow.RK45 is DormandPrince54
    assert metric_flow.RK45 is DormandPrince54
