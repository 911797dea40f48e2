"""Acceptance gate: one test per criterion, each printing its pass/fail line.

The criteria live in bracketflow.verify so the CLI `verify` command and this
module run exactly the same checks.  They share a module-scoped lab, which
makes each catalog run once, times its `integrate` call for the timed
criteria (C1, C2) and keeps its estimate report, so the gate is fast.
"""

import pytest

from bracketflow import FlowError, IntegratorOptions, verify
from bracketflow.verify import AcceptanceLab, criteria_ids, run_criterion


@pytest.fixture(scope="module")
def lab():
    return AcceptanceLab()


@pytest.mark.parametrize("cid", criteria_ids())
def test_acceptance_criterion(cid, lab):
    result = run_criterion(cid, lab)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.cid}: {result.title} -- {result.detail}")
    assert result.passed, f"criterion {result.cid} ({result.title}): {result.detail}"


def test_a_criterion_that_raises_a_flow_error_fails_naming_it(monkeypatch):
    def failing(*args, **kwargs):
        raise FlowError("step budget of 20 exhausted at t = 0.5")

    monkeypatch.setattr(verify, "integrate", failing)
    result = run_criterion(1, AcceptanceLab())
    assert not result.passed
    assert result.detail == "FlowError: step budget of 20 exhausted at t = 0.5"


def test_verify_makes_each_run_and_each_estimate_report_once(monkeypatch, capsys):
    # 16 catalog runs, C2's Heisenberg run to 1e4 and C5's mutant; one report
    # per catalog run, shared by C4, C5 and C6, and the mutant's
    calls = {"integrate": 0, "estimate_report": 0}

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    assert verify.verify_all() == 0
    assert calls == {"integrate": 18, "estimate_report": 17}


def test_c5_checks_its_mutants_verdict_when_the_mutants_report_cannot_be_read(monkeypatch):
    # at rel_tol 1e-6 the report of C5's mutant cannot be read (too few
    # samples); a mutant that still blows up must fail the verdict check too,
    # so the mutant here is the true flow and its report is refused
    lab = AcceptanceLab(IntegratorOptions(rel_tol=1e-6))
    assert run_criterion(5, lab).detail.endswith(
        "; su2_round/forward sign-flipped mutant: ValueError: need at least 20 samples for the estimate report, got 9"
    )

    def refused(traj):
        raise ValueError(f"need at least 20 samples for the estimate report, got {traj.n_samples}")

    monkeypatch.setattr(verify, "scale_bracket", lambda mu, c: mu)
    monkeypatch.setattr(verify, "estimate_report", refused)  # the catalog runs' reports are kept in the lab
    *_, verdict, report = run_criterion(5, lab).detail.split("; ")
    assert verdict == "mutant unexpectedly still blows up"
    assert report.startswith("su2_round/forward sign-flipped mutant: ValueError: need at least 20 samples")
