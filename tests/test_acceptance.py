"""Acceptance gate: one test per criterion, each printing its pass/fail line.

The criteria live in bracketflow.verify so the CLI `verify` command and this
module run exactly the same checks.  They share a module-scoped lab, which
makes each catalog run once, times its `integrate` call for the timed
criteria (C1, C2) and keeps its estimate report, so the gate is fast.
"""

import re

import numpy as np
import pytest

from bracketflow import FlowError, flow, verify
from bracketflow.catalog import catalog_entries
from bracketflow.verify import AcceptanceLab, criteria_ids, run_criterion

from oracles import local_derivatives_polyfit


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


def test_c5_fails_a_mutant_that_still_blows_up():
    # a mutant that still blows up must fail the verdict check, so the run
    # the mutant is read off here is a blowup (su(2) forward)
    lab = AcceptanceLab()
    lab._runs["su2_round", "backward", 2.0] = lab.timed_run("su2_round", "forward")
    result = run_criterion(5, lab)
    assert not result.passed
    assert result.detail == "mutant unexpectedly still blows up"


def test_a_wrong_vector_field_fails_c4_naming_the_run(monkeypatch):
    # every derivative of every run scaled by 1 + 1e-3: each run follows the
    # wrong field exactly, and C4 reads dR/dt off that field at each sample
    rhs = flow._default_rhs_tensor

    def scaled(y, table, scratch):
        dy, r = rhs(y, table, scratch)
        return dy * (1.0 + 1e-3), r

    monkeypatch.setattr(flow, "_default_rhs_tensor", scaled)
    result = run_criterion(4, AcceptanceLab())
    assert not result.passed
    assert re.fullmatch(r"worst relative error 1\.00e-03 \(\w+/(forward|backward)\)", result.detail)


@pytest.mark.parametrize("name", [entry.name for entry in catalog_entries()])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_the_integrated_r_series_follows_the_evolution_identity(name, direction, lab):
    # C4 reads dR/dt off each sample's own derivative; this reads it off the
    # integrated series R(t), by a quartic through each five samples, and
    # holds it to C4's bound, so that the runs are tested to follow their
    # vector field
    traj = lab.run(name, direction)
    target = 2.0 * traj.tr_ric_sq[2:-2]
    err = np.abs(local_derivatives_polyfit(traj.t, traj.scalar_R) - target)
    assert np.all(err <= 1e-4 * target)
