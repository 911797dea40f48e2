from collections.abc import Sequence

import numpy as np
import pytest

from bracketflow import (
    IntegratorOptions,
    LieBracket,
    NonSPDError,
    equivalence_check,
    integrate,
    metric_flow,
    metric_flow_integrate,
    metric_ricci,
    random_two_step_nilpotent,
    ricci_operator,
    transform_bracket,
)
from bracketflow.catalog import get_entry

from oracles import equivalence_gap_loop

HEIS = get_entry("heisenberg3").bracket
SU2 = get_entry("su2_round").bracket
HYP = get_entry("hyperbolic3").bracket
FLAT = get_entry("abelian3").bracket
# C8's q = 0 entries and horizons.
C8_HORIZONS = {
    "abelian3": 10.0,
    "heisenberg3": 100.0,
    "su2_round": 2.0,
    "hyperbolic3": 10.0,
    "nilpotent4": 10.0,
    "hyperbolic_plane": 10.0,
}


def _spd(n, seed):
    w = np.random.default_rng(seed).standard_normal((n, n))
    return w @ w.T + np.eye(n)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_metric_is_a_typed_error(bad):
    p = np.diag([1.0, bad, 1.0])
    with pytest.raises(NonSPDError, match="non-finite"):
        metric_ricci(HEIS, p)
    with pytest.raises(NonSPDError, match="non-finite"):
        metric_flow_integrate(HEIS, p, "forward", 1.0)


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


@pytest.mark.parametrize("name", sorted(C8_HORIZONS) + ["nilpotent5"])
def test_batched_gap_matches_the_per_point_loop(name):
    # C8's entries keep P(t) diagonal; the seeded nilpotent bracket does not
    if name == "nilpotent5":
        mu, horizon = random_two_step_nilpotent(5, np.random.default_rng(0)), 10.0
    else:
        mu, horizon = get_entry(name).bracket, C8_HORIZONS[name]
    assert abs(equivalence_check(mu, horizon) - equivalence_gap_loop(mu, horizon)) <= 1e-15


@pytest.mark.parametrize("name", ["heisenberg3", "su2_round", "nilpotent4"])
def test_metric_flow_from_a_general_metric_matches_the_pushed_bracket_flow(name):
    # the metric flow from P0 = L0^T L0 over mu is isometric to the bracket
    # flow from L0.mu, so their scalar curvatures agree at every time
    mu = get_entry(name).bracket
    p0 = _spd(mu.dims.n, 11)
    horizon = 0.05 if name == "su2_round" else 1.0
    opts = IntegratorOptions(collect_dense=True)
    mt = metric_flow_integrate(mu, p0, "forward", horizon, opts)
    bt = integrate(transform_bracket(mu, np.linalg.cholesky(p0).T), "forward", horizon, opts)
    assert mt.verdict.kind == bt.verdict.kind == "immortal"
    for t in np.linspace(0.0, horizon, 9):
        r_m = metric_ricci(mu, mt.dense(t).reshape(p0.shape))[1]
        r_b = ricci_operator(LieBracket(bt.dims, bt.dense(t).reshape(mu.c.shape)), check=False).scalar
        assert r_m == pytest.approx(r_b, rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("how", ["cholesky", "sqrt"])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_factor_comes_with_its_inverse(how, n):
    p = _spd(n, 40 + n)
    ell, ell_inv = metric_flow._factor(p, how)
    assert np.max(np.abs(ell @ ell_inv - np.eye(n))) <= 1e-14
    assert np.max(np.abs(ell.T @ ell - p)) <= 1e-14 * np.max(np.abs(p))
    if how == "cholesky":
        assert np.all(np.tril(ell, -1) == 0.0)
    else:
        assert np.max(np.abs(ell - ell.T)) <= 1e-14


def test_indefinite_metric_raises_through_the_factorization_status():
    p = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NonSPDError, match="dpotrf info = 2"):
        metric_flow._factor(p, "cholesky")
    with pytest.raises(NonSPDError, match="eigenvalue"):
        metric_flow._factor(p, "sqrt")


@pytest.mark.parametrize("name", ["heisenberg3", "su2_round", "hyperbolic3", "nilpotent4", "hyperbolic_plane"])
def test_metric_ricci_equals_the_solved_operator(name):
    # the operator L^-1 Ric_{L.mu} L as it was formed before the factor came
    # with its inverse: numpy's Cholesky factor, an LU push-forward and a solve
    mu = get_entry(name).bracket
    p = _spd(mu.dims.n, 3)
    ell = np.linalg.cholesky(p).T
    ric = ricci_operator(transform_bracket(mu, ell), check=False).ric
    op, scalar = metric_ricci(mu, p)
    assert np.max(np.abs(op - np.linalg.solve(ell, ric @ ell))) <= 1e-13
    assert scalar == pytest.approx(np.trace(ric), abs=1e-13)


@pytest.mark.parametrize("name", ["heisenberg3", "su2_round", "nilpotent4"])
def test_rhs_factor_form_equals_p_times_ricci_operator(name):
    mu = get_entry(name).bracket
    p = _spd(mu.dims.n, 9)
    ric, ell = metric_flow._pushed_ric(mu, p)
    op, _ = metric_ricci(mu, p)
    assert np.max(np.abs(ell.T @ ric @ ell - p @ op)) <= 1e-13


def test_metric_flow_makes_no_solve_inverse_or_bracket(monkeypatch):
    calls = {"solve": 0, "inv": 0, "LieBracket": 0}
    for name in ("solve", "inv"):
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    post_init = LieBracket.__post_init__

    def counted_post_init(self):
        calls["LieBracket"] += 1
        post_init(self)

    monkeypatch.setattr(LieBracket, "__post_init__", counted_post_init)
    traj = metric_flow_integrate(HEIS, np.eye(3), "backward", 1.0)
    assert traj.verdict.kind == "blowup" and traj.n_samples > 50
    assert calls == {"solve": 0, "inv": 0, "LieBracket": 0}
    # the counters see the public paths that still solve and invert
    metric_ricci(HEIS, np.eye(3))
    transform_bracket(HEIS, np.eye(3))
    assert calls == {"solve": 1, "inv": 1, "LieBracket": 1}


def test_metric_checkpoints_are_a_lazy_read_only_view():
    traj = metric_flow_integrate(SU2, np.eye(3), "forward", 2.0)
    cps = traj.checkpoints
    assert isinstance(cps, Sequence)
    assert type(cps) is type(integrate(SU2, "forward", 0.1).checkpoints)
    assert len(cps) == traj.n_samples
    first, last = cps[0], cps[-1]
    assert first.t == 0.0 and np.array_equal(first.p_matrix, np.eye(3))
    assert last.t == traj.t[-1]
    assert np.array_equal(last.p_matrix, last.p_matrix.T)
    # `_sym` is idempotent, so the view's matrix is the one the monitor read
    assert traj.scalar_R[-1] == metric_ricci(SU2, last.p_matrix)[1]
    with pytest.raises(IndexError):
        cps[len(cps)]
    part = cps[10:20:3]
    assert [s.t for s in part] == list(traj.t[10:20:3])
    assert np.array_equal(part[-1].p_matrix, cps[19].p_matrix)
    assert [s.t for s in cps] == list(traj.t)
