import numpy as np
import pytest

from bracketflow import (
    NonSPDError,
    equivalence_check,
    integrate,
    metric_flow,
    metric_flow_integrate,
    metric_ricci,
    ricci_operator,
)
from bracketflow.catalog import get_entry

HEIS = get_entry("heisenberg3").bracket
SU2 = get_entry("su2_round").bracket
HYP = get_entry("hyperbolic3").bracket
FLAT = get_entry("abelian3").bracket


def test_identity_metric_reduces_to_bracket_ricci():
    op, sc = metric_ricci(SU2, np.eye(3))
    rd = ricci_operator(SU2)
    assert np.allclose(op, rd.ric, atol=1e-13)
    assert sc == pytest.approx(rd.scalar, abs=1e-13)


def test_heisenberg_diagonal_metric_scalar():
    # classical value -(1/2) b / a^2
    a, b = 2.0, 3.0
    _, sc = metric_ricci(HEIS, np.diag([a, a, b]))
    assert sc == pytest.approx(-0.5 * b / a**2, rel=1e-13)


def test_su2_conformal_metric_matches_bracket_scaling():
    c = 2.0
    _, sc = metric_ricci(SU2, np.eye(3) / c**2)
    assert sc == pytest.approx(1.5 * c**2, rel=1e-13)


def test_gauge_independence_of_factorization():
    rng = np.random.default_rng(31)
    w = rng.standard_normal((3, 3))
    p = w @ w.T + 3.0 * np.eye(3)
    _, sc_chol = metric_ricci(HEIS, p, factor="cholesky")
    _, sc_sqrt = metric_ricci(HEIS, p, factor="sqrt")
    assert sc_chol == pytest.approx(sc_sqrt, rel=1e-12)
    op_c, _ = metric_ricci(HEIS, p, factor="cholesky")
    op_s, _ = metric_ricci(HEIS, p, factor="sqrt")
    assert np.allclose(np.sort(np.linalg.eigvals(op_c).real), np.sort(np.linalg.eigvals(op_s).real), atol=1e-10)


def test_non_spd_rejected():
    with pytest.raises(NonSPDError):
        metric_ricci(HEIS, np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(NonSPDError):
        metric_flow_integrate(HEIS, np.diag([0.0, 1.0, 1.0]), "forward", 1.0)


def test_isotropy_rejected():
    with pytest.raises(ValueError, match="q = 0"):
        metric_ricci(get_entry("sphere2_su2").bracket, np.eye(2))
    with pytest.raises(ValueError, match="q = 0"):
        metric_flow_integrate(get_entry("sphere2_su2").bracket, np.eye(2), "forward", 1.0)


def test_equivalence_check_rejects_isotropy_before_integrating(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("integrated a bracket with isotropy")

    monkeypatch.setattr(metric_flow, "integrate", fail)
    with pytest.raises(ValueError, match="q = 0"):
        equivalence_check(get_entry("sphere2_su2").bracket, 10.0)


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf")])
def test_metric_flow_rejects_horizon_that_is_not_finite_and_positive(horizon):
    with pytest.raises(ValueError, match="horizon"):
        metric_flow_integrate(SU2, np.eye(3), "forward", horizon)


def test_su2_metric_flow_shrinks_linearly():
    traj = metric_flow_integrate(SU2, np.eye(3), "forward", 2.0)
    assert traj.verdict.kind == "blowup"
    assert traj.verdict.omega_est == pytest.approx(1.0, abs=1e-3)
    for state in traj.checkpoints[:: max(1, len(traj.checkpoints) // 10)]:
        assert np.allclose(state.p_matrix, (1.0 - state.t) * np.eye(3), atol=1e-8)


def test_hyperbolic_metric_flow_expands_linearly():
    traj = metric_flow_integrate(HYP, np.eye(3), "forward", 5.0)
    assert traj.verdict.kind == "immortal"
    last = traj.checkpoints[-1]
    assert np.allclose(last.p_matrix, (1.0 + 4.0 * last.t) * np.eye(3), rtol=1e-8)


def test_hyperbolic_metric_flow_backward_shrinks_to_a_singularity():
    traj = metric_flow_integrate(HYP, np.eye(3), "backward", 1.0)
    assert traj.verdict.kind == "blowup"
    assert traj.verdict.omega_est == pytest.approx(-0.25, abs=1e-3)
    assert traj.t[0] == 0.0 and np.all(np.diff(traj.t) < 0)
    for state in traj.checkpoints:
        assert np.allclose(state.p_matrix, (1.0 + 4.0 * state.t) * np.eye(3), rtol=0.0, atol=1e-9)


def test_flat_metric_flow_constant():
    traj = metric_flow_integrate(FLAT, np.eye(3), "forward", 10.0)
    assert traj.verdict.kind == "immortal"
    assert np.allclose(traj.checkpoints[-1].p_matrix, np.eye(3), atol=0.0)
    assert np.all(traj.scalar_R == 0.0)


def test_metric_flow_scalar_matches_closed_form_heisenberg():
    traj = metric_flow_integrate(HEIS, np.eye(3), "forward", 100.0)
    exact = -1.0 / (2.0 * (1.0 + 3.0 * traj.t))
    assert np.max(np.abs(traj.scalar_R - exact) / np.abs(exact)) <= 1e-6


def test_equivalence_su2_and_interval_agreement():
    gap = equivalence_check(SU2, 2.0)
    assert gap <= 1e-5
    mt = metric_flow_integrate(SU2, np.eye(3), "forward", 2.0)
    bt = integrate(SU2, "forward", 2.0)
    assert abs(mt.verdict.omega_est - bt.verdict.omega_est) <= 1e-3


def test_equivalence_heisenberg_long_run():
    assert equivalence_check(HEIS, 100.0) <= 1e-5


def test_equivalence_flat_exact():
    assert equivalence_check(FLAT, 10.0) == 0.0


def test_ricci_spectra_recorded_sorted():
    traj = metric_flow_integrate(HEIS, np.eye(3), "forward", 5.0)
    assert traj.ric_eigs.shape == (traj.n_samples, 3)
    assert np.all(np.diff(traj.ric_eigs, axis=1) >= 0)
