"""README.md's Python quick start runs as printed, against the current API.

The README is the first code a reader copies, so a renamed or retired
attribute it uses shows up here, as `test_demos.py` does for `demos/`.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
    lines = out.getvalue().splitlines()
    assert lines[1] == "blowup" and lines[-1] == "True True"
