"""Tests of the benchmark itself: failure accounting, tail rank and span arithmetic.

Run from the root of a checkout with `python3 -m pytest flowbench -q`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402
from bracketflow.catalog import get_entry  # noqa: E402

HERE = Path(__file__).resolve().parent


def reporting_cli(report: Path, kind: str, omega, code: int = 0):
    """An api whose `main` writes a JSON report with the given verdict."""

    def main(argv):
        report.write_text(json.dumps({"verdict": {"kind": kind, "omega_est": omega}}))
        return code

    return SimpleNamespace(main=main)


@pytest.mark.parametrize(
    "kind, omega, code, ok",
    [
        ("blowup", 1.0 + 1e-6, 0, True),
        ("immortal", None, 0, False),  # wrong verdict kind
        ("blowup", 1.002, 0, False),  # singular time off by more than 1e-3
        ("blowup", None, 0, False),  # blowup without a singular time
        ("blowup", 1.0, 3, False),  # integrator failure exit code
    ],
)
def test_wrong_verdict_or_singular_time_counts_as_failed(tmp_path, kind, omega, code, ok):
    op = workloads.CliRun(get_entry("su2_round"), "forward", tmp_path)
    tally = run.Tally()
    run.run_op(op, reporting_cli(op.report, kind, omega, code), tally)
    assert tally.attempted == 1
    assert tally.failed == (0 if ok else 1)
    assert tally.timed_failed == tally.failed


def test_real_cli_run_is_read_from_its_report(tmp_path):
    op = workloads.CliRun(get_entry("abelian3"), "forward", tmp_path)
    tally = run.Tally()
    run.run_op(op, spans.entry_points(), tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    op.kind = "immortal"  # the run still says flat, so the check must fail
    run.run_op(op, spans.entry_points(), tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "verdict flat, expected immortal" in tally.failures


class _Op:
    def __init__(self, label, fail_with=None):
        self.label = label
        self.fail_with = fail_with
        self.runs = 0

    def prepare(self):
        pass

    def run(self, api):
        self.runs += 1
        if self.fail_with is not None:
            raise self.fail_with
        return None

    def check(self, result):
        return workloads.Outcome(True)


def test_raising_op_is_counted_and_run_goes_on():
    raising = _Op("raises", ValueError("blowup fit needs at least 10 samples"))
    after = _Op("after")
    probe = _Op("probe", ValueError("probe failure"))
    workload = workloads.Workload([raising, after], [probe])
    tally = run.Tally()
    run.run_pass(workload, None, tally)
    assert (raising.runs, after.runs, probe.runs) == (1, 1, 1)
    assert (tally.attempted, tally.failed, tally.timed_failed) == (3, 2, 1)
    assert tally.failures == {"raised ValueError": 1, "probe raised ValueError": 1}
    assert set(tally.times) == {"raises", "after"}


def test_tail_rank_leaves_ten_ops_beyond_it(tmp_path):
    for name in run.WORKLOADS:
        workload = workloads.build(name, 0, tmp_path)
        n_min = workload.min_passes * len(workload.ops)
        for n in (n_min, n_min + len(workload.ops), 3 * n_min):
            _, beyond = run.nearest_rank(list(range(n)), workload.tail_quantile)
            assert beyond >= 10


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    child = tracer.wrap("child", lambda: leaf())
    other = tracer.wrap("other", lambda: None)
    outer = tracer.wrap("outer", lambda: (child(), other()))
    outer()
    # outer [0, 10] > child [1, 4] > leaf [2, 3]; outer > other [5, 9]
    assert [tracer.names[i] for i in tracer.name_id] == ["outer", "child", "leaf", "other"]
    assert list(tracer.parent) == [-1, 0, 1, 0]
    assert tracer.self_times() == [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0]


class _Integrate:
    label = "su2_round/backward"

    def prepare(self):
        pass

    def run(self, api):
        return api.integrate(get_entry("su2_round").bracket, "backward", 10.0)

    def check(self, traj):
        return workloads.Outcome(traj.verdict.kind == "immortal")


def test_traced_counts_repeat_and_add_up(tmp_path):
    workload = workloads.Workload([_Integrate()], min_passes=1)
    tally, passes, layer = run.traced_run(workload, 0.0, tmp_path / "spans.csv")
    assert (passes, tally.failed) == (1, 0)
    again = run.traced_run(workload, 0.0, tmp_path / "spans.csv")[2]
    counts = {k: v for k, v in layer.items() if v[1] == "count"}
    assert counts == {k: v for k, v in again.items() if v[1] == "count"}
    value = {k: v for k, (v, _) in layer.items()}
    steps = value["flow.rk_step.accepted"] + value["flow.rk_step.rejected"]
    assert steps > 0
    assert value["flow.rhs.calls"] == 6 * steps + value["flow.rhs.monitor_calls"]
    # The monitor evaluates the RHS once per accepted step and at t = 0;
    # the solver adds two evaluations while choosing its first step.
    assert value["flow.rhs.monitor_calls"] == value["flow.rk_step.accepted"] + 3
    assert value["algebra.transform_bracket.calls"] == 0
    assert (tmp_path / "spans.csv").read_text().startswith("index,name,start_s,end_s,parent\n")


def test_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "flowbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "catalog_cli", "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
