"""`tools/run_digests.py` digests a run alike every time it makes it."""

import importlib.util
from pathlib import Path

from bracketflow import get_entry, integrate

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_digests.py"
_spec = importlib.util.spec_from_file_location("run_digests", TOOL)
run_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_digests)


def test_a_catalog_run_digests_alike_twice(tmp_path):
    run = run_digests.workloads.CliRun(get_entry("su2_round"), "forward", tmp_path)
    first, second = run_digests.cli_line(run), run_digests.cli_line(run)
    assert first == second
    label, kind, samples, sha = first.split()
    assert (label, kind) == ("su2_round/forward", "blowup")
    assert int(samples) > 20
    assert len(sha) == 64


def test_a_digest_tells_two_runs_apart():
    mu = get_entry("heisenberg3").bracket
    lines = {run_digests.bracket_line("heisenberg3", integrate(mu, "forward", h)) for h in (1.0, 1.0, 2.0)}
    assert len(lines) == 2
