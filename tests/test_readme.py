"""README.md's Python quick start and its scenario file run as printed,
against the current API, and every package name that the README and the
sources quote exists.

The README is the first code a reader copies, so a renamed or retired
attribute it uses shows up here, as `test_demos.py` does for `demos/`.
"""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

from bracketflow import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "bracketflow").glob("*.py"))
MODULES = sorted(p.stem for p in SOURCES if p.stem != "__init__")
# `module.name` in backticks, module one of the package's own
QUOTED = re.compile(rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
# a backticked constant: capitals, digits and underscores, three or more
# (one or two capitals, `P` or `P0`, are the prose's mathematical symbols)
CONSTANT = re.compile(r"`([A-Z][A-Z0-9_]{2,})`")


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
    lines = out.getvalue().splitlines()
    assert lines[1] == "blowup" and lines[-1] == "True True"


def test_readme_scenario_file_runs(tmp_path):
    # every key the README's scenario block documents loads, and the run
    # meets the block's own expectation
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "readme.scn"
    path.write_text(block)
    assert cli.main(["--out", str(tmp_path / "out"), "run", str(path)]) == 0


def _stale(text: str) -> list[str]:
    # the quoted `module.name`s that are no attribute of that module
    return [f"{mod}.{name}" for mod, name in QUOTED.findall(text)
            if not hasattr(importlib.import_module(f"bracketflow.{mod}"), name)]


def _stale_constants(text: str) -> list[str]:
    # the quoted constants that are no attribute of any of the package's modules
    modules = [importlib.import_module(f"bracketflow.{mod}") for mod in MODULES]
    return sorted({name for name in CONSTANT.findall(text) if not any(hasattr(m, name) for m in modules)})


@pytest.mark.parametrize("path", [README, *SOURCES], ids=lambda p: p.name)
def test_every_quoted_module_name_resolves(path):
    assert _stale(path.read_text()) == []


def test_every_quoted_constant_in_the_readme_resolves():
    assert CONSTANT.findall(README.read_text())  # the check sees the README's constants
    assert _stale_constants(README.read_text()) == []


def test_the_name_checks_see_a_retired_name():
    assert _stale("`curvature._ricci_table` and `flow._drive`") == ["curvature._ricci_table"]
    assert _stale_constants("`TABLE_MAX_ENTRIES` = 2^17, `DENSE_TABLE_MAX_ENTRIES`, `P0`") == ["TABLE_MAX_ENTRIES"]
