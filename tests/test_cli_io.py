import json

import numpy as np
import pytest

from bracketflow import IntegratorOptions, integrate, load_scenario, run_scenario
from bracketflow.catalog import get_entry
from bracketflow.cli import main
from bracketflow.scenario import CSV_HEADER, ScenarioError, write_trajectory_csv


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- scenario loading -------------------------------------------------------

def test_load_catalog_reference(tmp_path):
    path = _write(
        tmp_path,
        "su2.scn",
        """
        name = su2-demo
        catalog = su2_round
        direction = forward
        horizon = 0.99
        """,
    )
    sc = load_scenario(path)
    assert sc.catalog_name == "su2_round"
    assert sc.directions == ("forward",)
    assert sc.horizon == 0.99
    assert np.array_equal(sc.bracket().c, get_entry("su2_round").bracket.c)


def test_load_inline_heisenberg_equals_catalog(tmp_path):
    path = _write(
        tmp_path,
        "heis.scn",
        """
        q = 0
        n = 3
        bracket = (1, 2, 3, 1.0)
        direction = both
        horizon = 5
        """,
    )
    sc = load_scenario(path)
    assert sc.directions == ("forward", "backward")
    assert np.array_equal(sc.bracket().c, get_entry("heisenberg3").bracket.c)


def test_load_rejects_jacobi_violation_naming_residual(tmp_path):
    path = _write(
        tmp_path,
        "bad.scn",
        """
        q = 0
        n = 3
        bracket = (1,2,3,1.0) (2,3,2,1.0)
        """,
    )
    with pytest.raises(ScenarioError, match=r"bad\.scn:4: .*jacobi_residual"):
        load_scenario(path)


def test_load_reports_line_numbers(tmp_path):
    path = _write(tmp_path, "syntax.scn", "catalog = su2_round\nwat\n")
    with pytest.raises(ScenarioError, match=r"syntax\.scn:2"):
        load_scenario(path)
    path = _write(tmp_path, "unknown.scn", "catalog = su2_round\nfrobnicate = 3\n")
    with pytest.raises(ScenarioError, match="unknown key"):
        load_scenario(path)
    path = _write(tmp_path, "missing.scn", "q = 0\nn = 3\n")
    with pytest.raises(ScenarioError, match="need q, n and bracket"):
        load_scenario(path)
    with pytest.raises(ScenarioError, match="no such file"):
        load_scenario(tmp_path / "absent.scn")


def test_load_integrator_overrides(tmp_path):
    path = _write(
        tmp_path,
        "tols.scn",
        """
        catalog = heisenberg3
        rel_tol = 1e-8
        blowup_threshold = 1e5
        max_steps = 1000
        """,
    )
    sc = load_scenario(path)
    opts = sc.options()
    assert opts.rel_tol == 1e-8
    assert opts.blowup_threshold == 1e5
    assert opts.max_steps == 1000
    assert opts.abs_tol == IntegratorOptions().abs_tol


# --- CSV output -------------------------------------------------------------

def test_csv_header_and_roundtrip(tmp_path):
    traj = integrate(get_entry("su2_round").bracket, "forward", 2.0)
    path = tmp_path / "su2.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    # bit-for-bit round trip at the printed precision
    assert np.array_equal(data[:, 0], traj.t)
    assert np.array_equal(data[:, 1], traj.mu_norm)
    assert np.array_equal(data[:, 2], traj.scalar_R)
    assert np.array_equal(data[:, 3], traj.tr_ric_sq)
    assert np.array_equal(data[:, 4], traj.jacobi_residual)


def test_csv_su2_matches_closed_form_near_09(tmp_path):
    traj = integrate(get_entry("su2_round").bracket, "forward", 2.0)
    path = tmp_path / "su2.csv"
    write_trajectory_csv(traj, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    k = int(np.argmin(np.abs(rows[:, 0] - 0.9)))
    t, r = rows[k, 0], rows[k, 2]
    assert abs(t - 0.9) < 5e-3
    assert r == pytest.approx(1.5 / (1.0 - t), rel=1e-4)


def test_csv_flat_zero_columns(tmp_path):
    traj = integrate(get_entry("abelian3").bracket, "forward", 3.0)
    path = tmp_path / "flat.csv"
    write_trajectory_csv(traj, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.all(rows[:, 1:] == 0.0)


def test_csv_stride_keeps_last_row(tmp_path):
    traj = integrate(get_entry("heisenberg3").bracket, "forward", 10.0)
    path = tmp_path / "h.csv"
    write_trajectory_csv(traj, path, stride=7)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows[-1, 0] == traj.t[-1]


# --- run_scenario and exit codes ---------------------------------------------

def test_run_scenario_writes_files_and_report(tmp_path):
    sc = load_scenario(
        _write(
            tmp_path,
            "run.scn",
            """
            name = su2run
            catalog = su2_round
            direction = forward
            horizon = 2.0
            expect_forward = blowup
            expect_omega = 1.0
            """,
        )
    )
    code, written = run_scenario(sc, tmp_path)
    assert code == 0
    csv = tmp_path / "su2run_forward.csv"
    rep = tmp_path / "su2run_forward_report.json"
    assert csv.exists() and rep.exists()
    report = json.loads(rep.read_text())
    assert report["verdict"]["kind"] == "blowup"
    assert abs(report["verdict"]["omega_est"] - 1.0) < 1e-3
    assert report["verdict"]["rigorous_one_sided_bound"] is not None
    assert report["verdict"]["omega_stderr_nonrigorous"] is not None
    assert report["estimates"]["scalar_evolution_max_relerr"] <= 1e-4
    assert report["expectation_failures"] == []


def test_run_scenario_exit_1_on_contradiction(tmp_path):
    sc = load_scenario(
        _write(
            tmp_path,
            "wrong.scn",
            """
            name = wrong
            catalog = su2_round
            direction = forward
            horizon = 2.0
            expect_forward = immortal
            """,
        )
    )
    code, _ = run_scenario(sc, tmp_path)
    assert code == 1


def test_run_scenario_exit_3_on_integrator_failure(tmp_path):
    sc = load_scenario(
        _write(
            tmp_path,
            "stiff.scn",
            """
            name = stiff
            catalog = su2_round
            direction = forward
            horizon = 2.0
            blowup_threshold = 1e30
            """,
        )
    )
    code, written = run_scenario(sc, tmp_path)
    assert code == 3
    report = json.loads((tmp_path / "stiff_forward_report.json").read_text())
    assert "StiffnessError" in report["error"]


def test_backward_scenario_report(tmp_path):
    sc = load_scenario(
        _write(
            tmp_path,
            "hb.scn",
            """
            name = hb
            catalog = heisenberg3
            direction = backward
            horizon = 1.0
            expect_backward = blowup
            expect_alpha = -0.333333333333
            """,
        )
    )
    code, _ = run_scenario(sc, tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "hb_backward_report.json").read_text())
    assert abs(report["verdict"]["omega_est"] + 1.0 / 3.0) < 1e-3


# --- CLI entry points --------------------------------------------------------

def test_cli_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("heisenberg3", "su2_round", "abelian3", "sphere2_times_line"):
        assert name in out


def test_cli_catalog_run_forward(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "catalog", "run", "su2_round"]) == 0
    assert (tmp_path / "su2_round_forward.csv").exists()


def test_cli_catalog_run_backward(tmp_path):
    assert main(["--out", str(tmp_path), "catalog", "run", "heisenberg3", "--backward"]) == 0
    report = json.loads((tmp_path / "heisenberg3_backward_report.json").read_text())
    assert report["verdict"]["kind"] == "blowup"


def test_cli_catalog_run_unknown_entry(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "catalog", "run", "nonsense"]) == 2


def test_cli_run_scenario_file(tmp_path):
    scn = tmp_path / "ok.scn"
    scn.write_text("catalog = hyperbolic_plane\ndirection = backward\nhorizon = 1.0\n")
    assert main(["--out", str(tmp_path), "run", str(scn)]) == 0
    assert (tmp_path / "ok_backward.csv").exists()


def test_cli_run_bad_file_exit_2(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("q = 0\nn = 3\nbracket = (1,2,3,1.0) (2,3,2,1.0)\n")
    assert main(["--out", str(tmp_path), "run", str(scn)]) == 2
    assert "jacobi_residual" in capsys.readouterr().err


def test_cli_flag_overrides_threshold(tmp_path):
    scn = tmp_path / "s.scn"
    scn.write_text("catalog = su2_round\ndirection = forward\nhorizon = 2.0\n")
    code = main(["--out", str(tmp_path), "--blowup-threshold", "1e30", "run", str(scn)])
    assert code == 3


def test_cli_run_exit_3_when_declared_blowup_cannot_be_fitted(tmp_path):
    # heisenberg3 scaled by 1e7: a false blowup verdict whose tail is too short to fit
    scn = tmp_path / "big.scn"
    scn.write_text("name = big\nq = 0\nn = 3\nbracket = (1,2,3, 1e7)\ndirection = forward\nhorizon = 10\n")
    assert main(["--out", str(tmp_path), "run", str(scn)]) == 3
    report = json.loads((tmp_path / "big_forward_report.json").read_text())
    assert report["error"].startswith("FlowError:")


def test_load_rejects_dead_isotropy_naming_condition(tmp_path):
    scn = tmp_path / "h4.scn"
    scn.write_text("q = 1\nn = 2\nbracket = (2,3,1,1.0)\n")
    with pytest.raises(ScenarioError, match="h4_kernel_dim"):
        load_scenario(scn)


def test_cli_verify_exit_zero_and_one_line_per_criterion(capsys):
    from bracketflow.verify import criteria_ids

    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    for cid in criteria_ids():
        assert f"[PASS] {cid:>2}" in out
