"""`tools/run_digests.py` digests a run alike every time it makes it."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from bracketflow import equivalence_check, get_entry, integrate, metric_flow_integrate

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


def test_differing_lines_are_paired_by_label():
    old = ["a blowup 10 aaa", "b immortal 5 bbb", "c flat 33 ccc"]
    assert run_digests.differing(old, list(old)) == []
    new = ["a blowup 10 aaa", "b immortal 6 bbx", "d flat 33 ddd"]
    assert run_digests.differing(old, new) == [
        "- b immortal 5 bbb",
        "+ b immortal 6 bbx",
        "- c flat 33 ccc",
        "+ d flat 33 ddd",
    ]


def test_metric_lines_print_omega_and_the_gap_exactly():
    # A metric-side rounding change moves the series digests; the printed
    # omega_est and gap show by how much, and read back as the same floats.
    mu = get_entry("su2_round").bracket
    traj = metric_flow_integrate(mu, np.eye(3), "forward", 2.0)
    label, kind, omega, samples, sha = run_digests.metric_line("su2_round", traj).split()
    assert (label, kind, int(samples), len(sha)) == ("su2_round", "blowup", traj.n_samples, 64)
    assert float(omega) == traj.verdict.omega_est and omega == repr(float(omega))
    immortal = metric_flow_integrate(get_entry("heisenberg3").bracket, np.eye(3), "forward", 1.0)
    assert run_digests.metric_line("heisenberg3", immortal).split()[1:3] == ["immortal", "None"]
    gap = equivalence_check(mu, 0.5)
    label, text, samples, sha = run_digests.gap_line("su2_round", gap).split()
    assert (label, samples) == ("su2_round/gap", "-")
    assert float(text) == gap and text == repr(gap)
    assert sha == run_digests.digest([gap])


def test_a_differing_pair_that_prints_floats_says_how_far_they_moved():
    # omega_est moves by its relative difference, a gap by its absolute one;
    # a pair whose verdict column holds no float gets no third line
    old = [
        run_digests.line("C8/su2_round/metric", "blowup 1.0", 25, "a" * 64),
        run_digests.line("su2_round/gap", repr(1.5e-08), "-", "b" * 64),
        run_digests.line("C8/heisenberg3/metric", "immortal None", 109, "c" * 64),
        run_digests.line("su2_round/forward", "blowup", 30, "d" * 64),
    ]
    new = [
        run_digests.line("C8/su2_round/metric", "blowup 1.25", 30, "e" * 64),
        run_digests.line("su2_round/gap", repr(1.75e-08), "-", "f" * 64),
        run_digests.line("C8/heisenberg3/metric", "immortal None", 110, "g" * 64),
        run_digests.line("su2_round/forward", "blowup", 31, "h" * 64),
    ]
    diff = run_digests.differing(old, new)
    assert len(diff) == 10
    assert diff[2] == "  omega relative difference 0.25"
    assert diff[5] == "  gap absolute difference 2.5e-09"
    assert [text[0] for text in diff[6:]] == ["-", "+", "-", "+"]
    assert run_digests.printed_float(old[0]) == 1.0 and run_digests.printed_float(old[2]) is None


def test_a_differing_cli_pair_says_which_output_moved(tmp_path):
    # under a cli pair that differs: whether the CSV differs, and the
    # report's keys whose values differ
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    for out_dir in (old_dir, new_dir):
        out_dir.mkdir()
        run = run_digests.workloads.CliRun(get_entry("su2_round"), "forward", out_dir)
        first = run_digests.cli_line(run)
    assert run_digests.output_changes(run, old_dir, new_dir) == []
    report = json.loads(run.report.read_text())
    report["estimates"]["scalar_evolution_max_relerr"] *= 2.0
    run.report.write_text(json.dumps(report, indent=2) + "\n")
    moved = ["  report differs in estimates.scalar_evolution_max_relerr"]
    assert run_digests.output_changes(run, old_dir, new_dir) == moved
    second = first[:-64] + "0" * 64
    explain = lambda label: run_digests.output_changes(run, old_dir, new_dir)  # noqa: E731
    assert run_digests.differing([first], [second], explain) == [f"- {first}", f"+ {second}", *moved]
    csv = run.outputs[0]
    csv.write_text(csv.read_text() + "\n")
    assert run_digests.output_changes(run, old_dir, new_dir) == ["  CSV differs", *moved]
