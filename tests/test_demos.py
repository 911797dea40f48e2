"""Every script in demos/ runs to completion in-process and prints its walkthrough.

The README points readers at these scripts, and they read the public API
(`checkpoints`, `type_I_diagnostic`, the catalog, the metric flow), so a
change that breaks one shows up here.  Each check is text of one line the
script prints for a known closed form.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED_LINE = {
    "01_brackets_and_curvature": "su2         eigenvalues [0.5 0.5 0.5]  R = +1.500",
    "02_blowup_detection": "type-I diagnostic sup (omega-t)|Riem| = 0.866025",
    "03_flow_estimates": "    singular time estimate     = 1.000000000",
    "04_metric_vs_bracket": "  bracket flow verdict : blowup at 1.000000000",
    "05_catalog_tour": "  ok    sphere2_times_line   blowup at 0.500000 <= bound 0.750000",
}


def test_every_demo_has_a_check():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(EXPECTED_LINE)


@pytest.mark.parametrize("name", sorted(EXPECTED_LINE))
def test_demo_runs_and_prints_its_closed_form(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert EXPECTED_LINE[name] in out.getvalue()
