import json
import re
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from bracketflow import EstimateReport, IntegratorOptions, Scenario, cli, flow, integrate, load_scenario, run_scenario
from bracketflow.catalog import catalog_entries, get_entry
from bracketflow.cli import main
from bracketflow.scenario import CSV_HEADER, ScenarioError, write_trajectory_csv

from oracles import trajectory_csv_per_value


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
    assert sc.source == "su2_round"
    assert sc.directions == ("forward",)
    assert sc.horizon == 0.99
    assert np.array_equal(sc.bracket.c, get_entry("su2_round").bracket.c)


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
    assert np.array_equal(sc.bracket.c, get_entry("heisenberg3").bracket.c)


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
    # the verdict has no absolute threshold to set
    path = _write(tmp_path, "retired.scn", "catalog = su2_round\nblowup_threshold = 1e6\n")
    with pytest.raises(ScenarioError, match=r"retired\.scn:2: unknown key 'blowup_threshold'"):
        load_scenario(path)
    for key, value in (("direction", "sideways"), ("expect_forward", "exploded"), ("expect_backward", "1")):
        path = _write(tmp_path, "value.scn", f"catalog = su2_round\n{key} = {value}\n")
        with pytest.raises(ScenarioError, match=rf"value\.scn:2: bad value for {key}: must be "):
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
        drift_tol = 1e-5
        """,
    )
    sc = load_scenario(path)
    # the keys not given keep their defaults
    assert sc.options() == IntegratorOptions(rel_tol=1e-8, drift_tol=1e-5)


@pytest.mark.parametrize("horizon", ["0", "-1", "nan", "inf"])
def test_load_rejects_horizon_that_is_not_finite_and_positive(tmp_path, horizon):
    path = _write(tmp_path, "h.scn", f"catalog = su2_round\nhorizon = {horizon}\n")
    with pytest.raises(ScenarioError, match=r"h\.scn:2: bad value for horizon: must be (finite|positive)"):
        load_scenario(path)


def test_readme_scenario_block_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    sc = load_scenario(_write(tmp_path, "readme.scn", blocks[0]))
    assert sc.name == "heis-demo"
    assert np.array_equal(sc.bracket.c, get_entry("heisenberg3").bracket.c)
    assert sc.source == "inline"
    assert sc.expected == {"backward": ("blowup", -0.3333333333)}
    assert sc.options().membership_tol == 1e-10


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


@pytest.mark.parametrize("stride", [1, 7])
def test_csv_is_byte_identical_to_the_per_value_writer(tmp_path, stride):
    # the 16 catalog runs, and a run whose series hold inf, nan and -0.0
    trajs = [
        integrate(entry.bracket, direction, entry.default_horizon[direction])
        for entry in catalog_entries()
        for direction in ("forward", "backward")
    ]
    odd = trajs[2]
    special = np.resize([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -1.7976931348623157e308], odd.n_samples)
    trajs.append(replace(odd, scalar_R=special, tr_ric_sq=special[::-1].copy()))
    assert len(trajs) == 17
    path = tmp_path / "run.csv"
    for traj in trajs:
        write_trajectory_csv(traj, path, stride=stride)
        assert path.read_bytes() == trajectory_csv_per_value(traj, stride).encode()


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
    v = report["verdict"]
    # the enclosure is [t_stop, far_bound]: t_stop is the trajectory's last
    # time, which the CSV's last row holds to the bit
    assert v["t_stop"] == float(csv.read_text().splitlines()[-1].split(",")[0])
    slack = 1e-12 * abs(v["omega_est"])
    assert v["t_stop"] < v["omega_est"] <= v["far_one_sided_bound"] + slack
    # the power-law fit is off the verdict path, and its keys with it; the
    # sampled near bound is gone
    retired = {"omega_stderr_nonrigorous", "fit_exponent", "fit_exponent_stderr", "rigorous_one_sided_bound"}
    assert not retired & v.keys()
    assert report["estimates"]["scalar_evolution_max_relerr"] <= 1e-4
    # each number is reported once: the velocity ratio only among the estimates
    assert report["estimates"]["velocity_ratio_max"] > 0 and "lipschitz_ratio_max" not in report
    assert report["expectation_failures"] == []


def test_cli_run_writes_every_estimate_of_a_short_run(tmp_path):
    scn = _write(
        tmp_path,
        "short.scn",
        """
        name = short
        catalog = su2_round
        direction = forward
        horizon = 0.001
        """,
    )
    assert main(["--out", str(tmp_path), "run", str(scn)]) == 0
    report = json.loads((tmp_path / "short_forward_report.json").read_text())
    assert report["samples"] == 4
    assert set(report["estimates"]) == {field.name for field in fields(EstimateReport)}
    assert report["estimates"]["scalar_evolution_max_relerr"] <= 1e-15
    assert report["estimates"]["comparison_slack"] is not None
    assert "estimates_absent" not in report and "lipschitz_ratio_max" not in report


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


def test_run_scenario_exit_3_on_integrator_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 20)
    sc = load_scenario(
        _write(
            tmp_path,
            "stiff.scn",
            """
            name = stiff
            catalog = su2_round
            direction = forward
            horizon = 2.0
            """,
        )
    )
    code, written = run_scenario(sc, tmp_path)
    assert code == 3
    report = json.loads((tmp_path / "stiff_forward_report.json").read_text())
    assert report["error"].startswith("FlowError: step budget of 20 exhausted")


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


@pytest.mark.parametrize("name, rows", [("heisenberg3", 0), ("sphere2_su2", 2), ("abelian3", 0)])
def test_cli_report_says_how_many_residual_rows_the_drift_check_read(tmp_path, name, rows):
    # heisenberg3: every residual vanishes identically on its support, so the
    # per-step check is vacuous; sphere2_su2: two h3 rows; abelian3: flat
    assert main(["--out", str(tmp_path), "catalog", "run", name]) == 0
    report = json.loads((tmp_path / f"{name}_forward_report.json").read_text())
    assert report["residual_rows"] == rows


def test_in_process_cli_calls_share_one_parser_and_no_state(tmp_path):
    # The parser is built once per process; no flag of a call reaches the next.
    a, b = tmp_path / "A", tmp_path / "B"
    assert main(["--rel-tol", "1e-6", "--out", str(a), "catalog", "run", "heisenberg3", "--backward"]) == 0
    parser = cli._build_parser()
    assert main(["--out", str(b), "catalog", "run", "heisenberg3"]) == 0
    assert cli._build_parser() is parser
    assert sorted(path.name for path in b.iterdir()) == ["heisenberg3_forward.csv", "heisenberg3_forward_report.json"]
    report = json.loads((b / "heisenberg3_forward_report.json").read_text())
    entry = get_entry("heisenberg3")
    horizon = entry.default_horizon["forward"]
    fresh = integrate(entry.bracket, "forward", horizon)
    assert report["samples"] == fresh.n_samples
    # the first call's tolerance would have given another count
    assert fresh.n_samples != integrate(entry.bracket, "forward", horizon, IntegratorOptions(rel_tol=1e-6)).n_samples


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


def test_cli_run_uses_validation_tol_for_integration_too(tmp_path):
    # Jacobi residual 1e-9 passes validation_tol = 1e-6 at load time; the
    # integrator must accept it with the same tolerance.
    scn = _write(
        tmp_path,
        "loose.scn",
        """
        name = loose
        q = 0
        n = 3
        bracket = (1,2,3,1.0) (2,3,2,1e-9)
        validation_tol = 1e-6
        direction = forward
        horizon = 1
        """,
    )
    assert load_scenario(scn).options().membership_tol == 1e-6
    assert main(["--out", str(tmp_path), "run", str(scn)]) == 0
    report = json.loads((tmp_path / "loose_forward_report.json").read_text())
    assert report["verdict"]["kind"] == "immortal"


@pytest.mark.parametrize("horizon", ["0", "-1", "nan", "inf"])
def test_cli_catalog_run_bad_horizon_exit_2(tmp_path, capsys, horizon):
    assert main(["--out", str(tmp_path), "catalog", "run", "su2_round", "--horizon", horizon]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "horizon" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value", [("--rel-tol", "nan"), ("--rel-tol", "-1")])
def test_cli_bad_integrator_flag_exit_2(tmp_path, capsys, flag, value):
    assert main(["--out", str(tmp_path), flag, value, "catalog", "run", "su2_round"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err
    assert not list(tmp_path.iterdir())


def test_load_rejects_integrator_key_out_of_range_naming_file_and_key(tmp_path):
    for key in ("rel_tol", "drift_tol"):
        scn = _write(tmp_path, "neg.scn", f"catalog = su2_round\n{key} = -1\n")
        with pytest.raises(ScenarioError, match=rf"neg\.scn:2: bad value for {key}"):
            load_scenario(scn)


def test_load_rejects_validation_tol_above_drift_tol_once_every_key_is_read(tmp_path, capsys):
    # a bracket admitted above drift_tol would fail the drift check at its
    # first step; drift_tol given after validation_tol still counts
    scn = _write(tmp_path, "pair.scn", "catalog = su2_round\nvalidation_tol = 1e-4\n")
    with pytest.raises(ScenarioError, match=r"pair\.scn:2: bad value for validation_tol: .*membership_tol.*drift_tol"):
        load_scenario(scn)
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(scn)]) == 2
    assert "pair.scn:2: bad value for validation_tol" in capsys.readouterr().err
    assert not out.exists()
    scn = _write(tmp_path, "pair.scn", "catalog = su2_round\nvalidation_tol = 1e-4\ndrift_tol = 1e-3\n")
    assert load_scenario(scn).options() == IntegratorOptions(membership_tol=1e-4, drift_tol=1e-3)


@pytest.mark.parametrize("args", [["--abs-tol", "1e-12"], ["--abs-tol=1e-12"]])
def test_cli_abs_tol_flag_is_a_usage_error(tmp_path, capsys, args):
    # the step control has no absolute tolerance: its floor follows the initial state
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), *args, "catalog", "run", "su2_round"])
    assert exc.value.code == 2
    assert "usage: bracketflow" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_scenario_abs_tol_key_is_unknown_and_run_exits_2(tmp_path, capsys):
    scn = _write(tmp_path, "atol.scn", "catalog = su2_round\nabs_tol = 1e-12\n")
    with pytest.raises(ScenarioError, match=r"atol\.scn:2: unknown key 'abs_tol'"):
        load_scenario(scn)
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(scn)]) == 2
    assert "atol.scn:2: unknown key 'abs_tol'" in capsys.readouterr().err
    assert not out.exists()


def test_scenario_max_steps_key_is_unknown_and_run_exits_2(tmp_path, capsys):
    # the step budget is the module constant flow.MAX_STEPS, not an option
    scn = _write(tmp_path, "budget.scn", "catalog = su2_round\nmax_steps = 1000\n")
    with pytest.raises(ScenarioError, match=r"budget\.scn:2: unknown key 'max_steps'"):
        load_scenario(scn)
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(scn)]) == 2
    assert "budget.scn:2: unknown key 'max_steps'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_exit_0_on_a_large_immortal_bracket(tmp_path):
    # heisenberg3 scaled by 1e7: |mu| is large from the start, but R < 0,
    # so the forward stop rule never fires and the run reaches the horizon
    scn = tmp_path / "big.scn"
    scn.write_text("name = big\nq = 0\nn = 3\nbracket = (1,2,3, 1e7)\ndirection = forward\nhorizon = 10\n")
    assert main(["--out", str(tmp_path), "run", str(scn)]) == 0
    report = json.loads((tmp_path / "big_forward_report.json").read_text())
    assert report["verdict"]["kind"] == "immortal"


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


def test_cli_verify_failing_criteria_still_print_the_whole_table(capsys):
    # at rel_tol 1e-6 C2's forward R error and C8's su(2) gap exceed their
    # accuracy bounds; the whole table prints, with no traceback, and no
    # criterion reads a sample count (runs of 9 to 19 samples get every
    # estimate)
    from bracketflow.verify import criteria_ids

    assert main(["--rel-tol", "1e-6", "verify"]) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert [line[7:9] for line in lines[:-1]] == [f"{cid:>2}" for cid in criteria_ids()]
    assert lines[-1] == "9/11 criteria passed, 2 FAILED"
    assert [line[1:9] for line in lines[:-1] if line.startswith("[FAIL]")] == ["FAIL]  2", "FAIL]  8"]
    assert "forward R relative error" in lines[1] and "su2_round: invariant gap" in lines[7]
    assert "Traceback" not in out and "sample" not in out


@pytest.mark.parametrize(
    "key, value",
    [("expect_tol", "nan"), ("expect_tol", "inf"), ("expect_tol", "-1e-3"), ("expect_tol", "0"),
     ("expect_omega", "nan"), ("expect_omega", "inf"), ("expect_alpha", "nan"), ("expect_alpha", "-inf")],
)
def test_load_rejects_expectation_that_cannot_be_checked(tmp_path, capsys, key, value):
    # a NaN tolerance or singular time passes every comparison; a negative tolerance fails every run
    other = "expect_alpha" if key == "expect_omega" else "expect_omega"  # a key may be given once
    scn = _write(tmp_path, "exp.scn", f"catalog = su2_round\n{other} = 1.0\n{key} = {value}\n")
    with pytest.raises(ScenarioError, match=rf"exp\.scn:3: bad value for {key}"):
        load_scenario(scn)
    assert main(["--out", str(tmp_path), "run", str(scn)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.glob("*.csv"))


def test_cli_nan_expect_tol_no_longer_passes_a_wrong_singular_time(tmp_path):
    scn = _write(tmp_path, "wrong.scn", "catalog = su2_round\nexpect_omega = 5.0\nexpect_tol = nan\n")
    assert main(["--out", str(tmp_path), "run", str(scn)]) == 2
    scn.write_text("catalog = su2_round\nhorizon = 2.0\nexpect_omega = 5.0\nexpect_tol = 1e-3\n")
    assert main(["--out", str(tmp_path), "run", str(scn)]) == 1


@pytest.mark.parametrize("value", ["-3", "0", "1.5", "two"])
def test_load_rejects_sample_stride_below_one_or_not_an_int(tmp_path, value):
    scn = _write(tmp_path, "stride.scn", f"catalog = su2_round\nsample_stride = {value}\n")
    with pytest.raises(ScenarioError, match=r"stride\.scn:2: bad value for sample_stride"):
        load_scenario(scn)


def test_load_keeps_a_valid_sample_stride(tmp_path):
    assert load_scenario(_write(tmp_path, "ok.scn", "catalog = su2_round\nsample_stride = 7\n")).sample_stride == 7


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_load_rejects_non_finite_bracket_value_naming_entry_and_line(tmp_path, value):
    scn = _write(tmp_path, "inf.scn", f"name = x\nq = 0\nn = 3\nbracket = (1,2,3, {value})\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any residual is computed on it
        with pytest.raises(ScenarioError, match=r"inf\.scn:4: bracket entry \(1, 2, 3, .*\): value must be finite"):
            load_scenario(scn)


def test_load_rejects_a_key_given_twice_naming_both_lines(tmp_path):
    # the last value used to win without a word: this file ran to 0.5 and
    # exited 1 with "expected blowup"
    text = "catalog = su2_round\nexpect_forward = blowup\nhorizon = 2.0\nhorizon = 0.5\n"
    path = _write(tmp_path, "dup.scn", text)
    with pytest.raises(ScenarioError, match=r"dup\.scn:4: duplicate key 'horizon', first given on line 3"):
        load_scenario(path)
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(path)]) == 2
    assert not out.exists()


def _single_error_line(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    for word in words:
        assert word in err


def test_cli_out_naming_a_file_exits_2_before_any_run(tmp_path, capsys):
    taken = _write(tmp_path, "taken", "")
    assert main(["--out", str(taken), "catalog", "run", "su2_round"]) == 2
    _single_error_line(capsys, "--out", str(taken))
    assert main(["--out", str(taken / "sub"), "catalog", "run", "su2_round"]) == 2
    _single_error_line(capsys, "--out")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_cli_run_on_a_directory_exits_2(tmp_path, capsys):
    assert main(["--out", str(tmp_path / "out"), "run", str(tmp_path)]) == 2
    _single_error_line(capsys, str(tmp_path), "Is a directory")
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path)


def test_cli_run_on_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.scn"
    path.write_bytes("catalog = su2_round\nname = café\n".encode("latin-1"))
    assert main(["--out", str(tmp_path / "out"), "run", str(path)]) == 2
    _single_error_line(capsys, "latin1.scn", "UTF-8")
    with pytest.raises(ScenarioError, match="cannot read as UTF-8 text"):
        load_scenario(path)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("q = 0\nn = 3\nbracket = 1, 2, 3, 1.0\n", 3, "bracket must list (i,j,k,value) groups"),
        ("q = 0\nn = 3\nbracket = (1, 2, 3)\n", 3, "bracket entry (1, 2, 3) needs exactly i, j, k, value"),
        ("q = 0\nn = 3\nbracket = (1, 2, x, 1.0)\n", 3, "bad bracket entry (1, 2, x, 1.0)"),
        ("catalog = su2_round\n= 3\n", 2, "empty key or value"),
        ("horizon = 2.0\ncatalog = su2_round\nq = 0\n", 2, "give either catalog = ... or inline q/n/bracket"),
        ("horizon = 2.0\ncatalog = su3_round\n", 2, "no catalog entry named 'su3_round'"),
    ],
    ids=["no-groups", "three-parts", "not-a-number", "empty-key", "catalog-and-inline", "unknown-entry"],
)
def test_load_error_names_file_and_line_and_run_exits_2(tmp_path, capsys, text, line, message):
    scn = _write(tmp_path, "broken.scn", text)
    with pytest.raises(ScenarioError, match=rf"broken\.scn:{line}: {re.escape(message)}"):
        load_scenario(scn)
    out = tmp_path / "out"
    assert main(["--out", str(out), "run", str(scn)]) == 2
    _single_error_line(capsys, f"broken.scn:{line}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("name", ["sub/x", "../escaped"])
def test_name_with_a_path_separator_is_refused_before_anything_is_written(tmp_path, capsys, name):
    # the name prefixes the output files: sub/x used to fail after the run
    # with a traceback, and ../escaped wrote its files outside --out
    work = tmp_path / "work"
    scn = _write(tmp_path, "sep.scn", f"catalog = su2_round\nname = {name}\nhorizon = 2.0\n")
    with pytest.raises(ScenarioError, match=r"sep\.scn:2: bad value for name: must not contain a path separator"):
        load_scenario(scn)
    assert main(["--out", str(work / "out"), "run", str(scn)]) == 2
    _single_error_line(capsys, "sep.scn:2: bad value for name")
    # a Scenario built in Python is refused too: ../escaped wrote next to out/
    su2 = Scenario(name="su2", bracket=get_entry("su2_round").bracket, horizon=2.0)
    with pytest.raises(ScenarioError, match="bad scenario name: must not contain a path separator"):
        run_scenario(replace(su2, name=name), work / "out")
    with pytest.raises(FrozenInstanceError):
        su2.name = name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sep.scn"]
