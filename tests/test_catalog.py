import dataclasses

import numpy as np
import pytest

from bracketflow import verify
from bracketflow import (
    IntegratorOptions,
    check_conditions,
    estimate_blowup_time,
    integrate,
    metric_flow_integrate,
    ricci_operator,
)
from bracketflow.catalog import catalog_entries, cover_dichotomy_check, get_entry
from bracketflow.flow import STOP_REL

REQUIRED = {
    "abelian3",
    "heisenberg3",
    "su2_round",
    "hyperbolic3",
    "nilpotent4",
    "hyperbolic_plane",
    "sphere2_su2",
    "sphere2_times_line",
}


@pytest.fixture(scope="module")
def runs():
    out = {}
    for entry in catalog_entries():
        for direction in ("forward", "backward"):
            out[(entry.name, direction)] = integrate(
                entry.bracket, direction, entry.default_horizon[direction]
            )
    return out


def test_required_entries_present():
    names = {e.name for e in catalog_entries()}
    assert REQUIRED <= names


def test_entries_pass_conditions_exactly():
    for entry in catalog_entries():
        rep = check_conditions(entry.bracket)
        assert rep.passes(1e-12), entry.name
        assert entry.h2_note  # provenance is always recorded


def test_authored_scalar_curvature_matches():
    for entry in catalog_entries():
        rd = ricci_operator(entry.bracket)
        assert abs(rd.scalar - entry.r0) <= 1e-12, entry.name


def test_expected_verdicts_reproduced(runs):
    for entry in catalog_entries():
        for direction in ("forward", "backward"):
            kind, when = entry.expected[direction]
            traj = runs[(entry.name, direction)]
            assert traj.verdict.kind == kind, f"{entry.name}/{direction}"
            if when is not None:
                assert traj.verdict.omega_est == pytest.approx(when, abs=1e-3), (
                    f"{entry.name}/{direction}"
                )


# The relative error of omega_est against the closed form, in units of
# rel_tol, on the 7 catalog blowups from rel_tol = 1e-6 to 1e-12.  Measured:
# 0.97-2.4 at 1e-6, 0.75-3.2 at 1e-8 (nilpotent4 backward the worst),
# 0.15-1.1 at 1e-10 and 0.44-1.3 at 1e-12.  At 1e-4 the error is only
# 0.014-0.085 of rel_tol, so the bound is not stated there.
OMEGA_ERROR_PER_REL_TOL = 5.0


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10, 1e-12])
def test_singular_time_error_is_proportional_to_rel_tol(rel_tol):
    blowups = [(e, d) for e in catalog_entries() for d in ("forward", "backward") if e.expected[d][0] == "blowup"]
    assert len(blowups) == 7
    for entry, direction in blowups:
        omega = entry.expected[direction][1]
        opts = IntegratorOptions(rel_tol=rel_tol)
        traj = integrate(entry.bracket, direction, entry.default_horizon[direction], opts)
        assert traj.verdict.kind == "blowup", f"{entry.name}/{direction}"
        error = abs(traj.verdict.omega_est - omega) / abs(omega)
        assert error <= OMEGA_ERROR_PER_REL_TOL * rel_tol, f"{entry.name}/{direction}: {error:.3e}"


def test_sign_dichotomy(runs):
    for entry in catalog_entries():
        fwd = runs[(entry.name, "forward")]
        bwd = runs[(entry.name, "backward")]
        if fwd.verdict.kind in ("immortal", "flat"):
            assert np.max(fwd.scalar_R) <= 1e-12, entry.name
        if bwd.verdict.kind in ("immortal", "flat"):
            assert np.min(bwd.scalar_R) >= -1e-12, entry.name


def test_heisenberg_closed_form_quotes(runs):
    traj = runs[("heisenberg3", "forward")]
    assert traj.scalar_R[0] == pytest.approx(-0.5, abs=1e-14)
    bwd = runs[("heisenberg3", "backward")]
    assert bwd.verdict.omega_est == pytest.approx(-1.0 / 3.0, abs=1e-3)
    su2 = runs[("su2_round", "forward")]
    assert su2.scalar_R[0] == pytest.approx(1.5, abs=1e-14)
    assert su2.verdict.omega_est == pytest.approx(1.0, abs=1e-3)
    flat = runs[("abelian3", "forward")]
    assert flat.verdict.kind == "flat"


def test_product_entry_block_structure():
    entry = get_entry("sphere2_times_line")
    rd = ricci_operator(entry.bracket)
    assert np.allclose(rd.ric, np.diag([1.0, 1.0, 0.0]), atol=1e-14)
    assert entry.bracket.dims.q == 1
    assert entry.bracket.dims.n == 3


def test_cover_dichotomy_check_all_entries(runs):
    for entry in catalog_entries():
        verdict = cover_dichotomy_check(entry, runs[(entry.name, "forward")])
        assert verdict.ok, f"{entry.name}: {verdict.detail}"


def test_cover_dichotomy_check_catches_contradiction(runs):
    # a doctored entry whose note contradicts its dynamics must fail, not raise
    entry = get_entry("su2_round")
    doctored = dataclasses.replace(entry, universal_cover_note="R^n")
    verdict = cover_dichotomy_check(doctored, runs[("su2_round", "forward")])
    assert not verdict.ok


@pytest.mark.parametrize(
    "name, changes, run, detail",
    [
        # su2's backward run is immortal with R > 0 all along
        ("su2_round", {"universal_cover_note": "R^n"}, ("su2_round", "backward"), "> 0 on a cover-R^n entry"),
        ("heisenberg3", {"universal_cover_note": "not R^n"}, ("heisenberg3", "forward"), "must carry R(0) > 0"),
        ("su2_round", {}, ("su2_round", "backward"), "expected forward blowup, got immortal"),
        # R(0) = 3 would put the extinction bound at 1/2, before su2's singular time 1
        ("su2_round", {"r0": 3.0}, ("su2_round", "forward"), "exceeds extinction bound 0.500000"),
    ],
    ids=["positive-R-on-R^n", "non-positive-r0", "no-forward-blowup", "omega-past-the-bound"],
)
def test_cover_dichotomy_check_fails_on_each_contradiction(runs, name, changes, run, detail):
    verdict = cover_dichotomy_check(dataclasses.replace(get_entry(name), **changes), runs[run])
    assert not verdict.ok
    assert detail in verdict.detail


def test_c10_fails_on_an_entry_that_contradicts_its_run(monkeypatch):
    doctored = [
        dataclasses.replace(entry, r0=3.0) if entry.name == "su2_round" else entry for entry in catalog_entries()
    ]
    monkeypatch.setattr(verify, "catalog_entries", lambda: doctored)
    result = verify.run_criterion(10)
    assert not result.passed
    assert result.detail == "su2_round: omega_est = 1.000000 exceeds extinction bound 0.500000"


def test_get_entry_unknown_name():
    with pytest.raises(KeyError, match="no catalog entry"):
        get_entry("nope")


def test_scalar_curvature_diverges_at_every_blowup(runs):
    # desk-scale form of the curvature blowup: |R| huge and strictly
    # monotone into the singularity, with the right sign per direction
    for (name, direction), traj in runs.items():
        if traj.verdict.kind != "blowup":
            continue
        tail = traj.scalar_R[-5:]
        assert np.all(np.diff(tail) > 0) if direction == "forward" else np.all(np.diff(tail) < 0), (
            name,
            direction,
        )
        if direction == "forward":
            assert tail[-1] > 1e5, (name, tail[-1])
        else:
            assert tail[-1] < -1e5, (name, tail[-1])


def test_extinction_bounds_hold_across_catalog(runs):
    for entry in catalog_entries():
        n = entry.bracket.dims.n
        if entry.r0 > 0:
            fwd = runs[(entry.name, "forward")]
            assert fwd.verdict.kind == "blowup"
            assert fwd.verdict.omega_est <= (n / 2.0) / entry.r0 + 1e-3, entry.name
        elif entry.r0 < 0:
            bwd = runs[(entry.name, "backward")]
            assert bwd.verdict.kind == "blowup"
            assert bwd.verdict.omega_est >= (n / 2.0) / entry.r0 - 1e-3, entry.name


def test_blowup_estimates_lie_in_their_enclosures(runs):
    # omega_est lies past the last sample and no farther than the far
    # comparison bound, up to 1e-12 |omega| (rounding may land it an ulp or
    # two past the far end), on both flows; the enclosure [t_stop, far_bound]
    # is shorter than STOP_REL |t_stop|
    metric_runs = {
        key: metric_flow_integrate(traj.initial, np.eye(traj.dims.n), key[1], traj.horizon)
        for key, traj in runs.items()
        if traj.verdict.kind == "blowup" and traj.dims.q == 0
    }
    assert len(metric_runs) == 5
    for (name, direction), traj in [*runs.items(), *metric_runs.items()]:
        if traj.verdict.kind != "blowup":
            continue
        v = traj.verdict
        sign = 1.0 if direction == "forward" else -1.0
        t_stop = traj.t[-1]
        assert estimate_blowup_time(traj) == (v.omega_est, tuple(sorted((t_stop, v.far_bound)))), name
        assert 0 < sign * (v.far_bound - t_stop) < STOP_REL * abs(t_stop), name
        assert sign * (v.omega_est - t_stop) > 0, name
        assert sign * (v.far_bound - v.omega_est) >= -1e-12 * abs(v.omega_est), name
