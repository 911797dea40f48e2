"""`tools/code_lines.py` counts code lines without blanks, comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import numpy as np  # a trailing comment keeps its line


# a comment line
def f(x):
    """One-line docstring."""
    y = np.array([
        x,
        x + 1,
    ])
    note = """a string that is
    not a docstring"""
    return y, note


class C:
    """Class docstring."""

    value = 1
'''


def test_counts_code_lines_only():
    # import; def; the four lines of the multi-line statement; both lines of
    # the non-docstring string; return; class; value
    assert code_lines.code_lines(SOURCE) == 11


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["11", "1", "12"]
    assert lines[-1].split()[1] == "total"
