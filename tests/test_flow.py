import numpy as np
import pytest

from bracketflow import (
    DriftError,
    FlowError,
    IntegratorOptions,
    LieBracket,
    NotInVarietyError,
    StiffnessError,
    bracket_flow_rhs,
    bracket_norm,
    estimate_blowup_time,
    estimate_report,
    fit_power_blowup,
    integrate,
    random_bracket,
    scale_bracket,
    type_I_diagnostic,
)
from bracketflow.catalog import get_entry

HEIS = get_entry("heisenberg3").bracket
SU2 = get_entry("su2_round").bracket
HYP = get_entry("hyperbolic3").bracket
FLAT = get_entry("abelian3").bracket


@pytest.fixture(scope="module")
def su2_forward():
    return integrate(SU2, "forward", 2.0)


@pytest.fixture(scope="module")
def heis_backward():
    return integrate(HEIS, "backward", 1.0)


# --- right-hand side --------------------------------------------------------

def test_rhs_zero_is_fixed_point():
    assert np.all(bracket_flow_rhs(FLAT).c == 0.0)


def test_rhs_heisenberg_coefficient():
    # Ric = diag(-1/2,-1/2,1/2) makes dc/dt = -(Ric_33 - Ric_11 - Ric_22) c = -3/2
    out = bracket_flow_rhs(HEIS)
    assert out.c[0, 1, 2] == pytest.approx(-1.5, abs=1e-15)
    assert np.count_nonzero(out.c) == 2


def test_rhs_su2_is_half_mu():
    out = bracket_flow_rhs(SU2)
    assert np.allclose(out.c, 0.5 * SU2.c, atol=1e-15)


def test_rhs_cubic_scaling():
    rng = np.random.default_rng(21)
    mu = random_bracket(0, 4, rng)
    base = bracket_flow_rhs(LieBracket(mu.dims, mu.c))
    for c in (0.1, 10.0):
        got = bracket_flow_rhs(scale_bracket(mu, c))
        assert np.allclose(got.c, c**3 * base.c, rtol=1e-12)


def test_velocity_bound_over_random_brackets():
    # |dmu/dt| / |mu|^3 is bounded and exactly scale-invariant
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(1000):
        mu = random_bracket(0, int(rng.integers(3, 6)), rng)
        ratio = bracket_norm(bracket_flow_rhs(mu)) / bracket_norm(mu) ** 3
        worst = max(worst, ratio)
        if _ % 97 == 0:
            scaled = scale_bracket(mu, 10.0)
            r2 = bracket_norm(bracket_flow_rhs(scaled)) / bracket_norm(scaled) ** 3
            assert r2 == pytest.approx(ratio, rel=1e-12)
    assert worst < 10.0


# --- closed-form trajectories ----------------------------------------------

def test_heisenberg_forward_closed_form():
    traj = integrate(HEIS, "forward", 100.0)
    assert traj.verdict.kind == "immortal"
    exact_r = -1.0 / (2.0 * (1.0 + 3.0 * traj.t))
    assert np.max(np.abs(traj.scalar_R - exact_r) / np.abs(exact_r)) <= 1e-6
    exact_norm = np.sqrt(2.0) * (1.0 + 3.0 * traj.t) ** -0.5
    assert np.max(np.abs(traj.mu_norm - exact_norm) / exact_norm) <= 1e-6


def test_su2_forward_blowup(su2_forward):
    traj = su2_forward
    assert traj.verdict.kind == "blowup"
    assert traj.verdict.omega_est == pytest.approx(1.0, abs=1e-3)
    # compare against the closed form away from the pole, where the tiny
    # accumulated shift of the numerical singular time is negligible
    mask = traj.t <= 0.999
    exact_norm = np.sqrt(6.0) / np.sqrt(1.0 - traj.t[mask])
    assert np.max(np.abs(traj.mu_norm[mask] - exact_norm) / exact_norm) <= 1e-6


def test_hyperbolic_backward_blowup():
    traj = integrate(HYP, "backward", 1.0)
    assert traj.verdict.kind == "blowup"
    assert traj.verdict.omega_est == pytest.approx(-0.25, abs=1e-3)


def test_backward_times_decrease(heis_backward):
    assert np.all(np.diff(heis_backward.t) < 0)
    assert heis_backward.t[0] == 0.0


def test_forward_times_increase(su2_forward):
    assert np.all(np.diff(su2_forward.t) > 0)


def test_blowup_estimate_beyond_last_sample_and_rigorous_bound(su2_forward, heis_backward):
    v = su2_forward.verdict
    t_last = su2_forward.t[-1]
    assert v.omega_est > t_last
    gap = v.omega_est - t_last
    assert v.omega_est >= v.rigorous_bound - 1e-3 * gap
    v = heis_backward.verdict
    t_last = heis_backward.t[-1]
    assert v.omega_est < t_last
    gap = t_last - v.omega_est
    assert v.omega_est <= v.rigorous_bound + 1e-3 * gap


def test_membership_conserved_along_flow(su2_forward, heis_backward):
    for traj in (su2_forward, heis_backward):
        scale = 1.0 + traj.mu_norm**2
        assert np.max(traj.jacobi_residual / scale) <= 1e-8
        assert np.max(traj.h1_residual / scale) <= 1e-8
        assert np.max(traj.h3_residual / scale) <= 1e-8


def test_flat_input_returns_stationary_trajectory():
    traj = integrate(FLAT, "forward", 5.0)
    assert traj.verdict.kind == "flat"
    assert traj.n_samples >= 20
    assert np.all(traj.mu_norm == 0.0)
    assert np.all(traj.scalar_R == 0.0)
    bwd = integrate(FLAT, "backward", 5.0)
    assert bwd.verdict.kind == "flat"
    assert bwd.t[-1] == -5.0


def test_integrate_rejects_non_member():
    c = np.array(HEIS.c)
    c[1, 2, 1] += 0.1
    with pytest.raises(NotInVarietyError):
        integrate(LieBracket(HEIS.dims, c), "forward", 1.0)


def test_integrate_rejects_bad_arguments():
    with pytest.raises(ValueError, match="direction"):
        integrate(HEIS, "sideways", 1.0)
    with pytest.raises(ValueError, match="horizon"):
        integrate(HEIS, "forward", -1.0)


def test_stiffness_failure_when_threshold_unreachable():
    # an absurd threshold cannot be certified before the step size underflows
    opts = IntegratorOptions(blowup_threshold=1e30)
    with pytest.raises(StiffnessError):
        integrate(SU2, "forward", 2.0, opts)


def test_drift_failure_detected_with_broken_dynamics():
    # push the state off the Jacobi variety along a genuinely violating direction
    poison = np.zeros((3, 3, 3))
    poison[1, 2, 1] = 1.0

    def leaky(mu):
        good = bracket_flow_rhs(mu)
        return LieBracket(mu.dims, good.c + 1e-3 * poison)

    opts = IntegratorOptions(drift_tol=1e-10)
    with pytest.raises(DriftError):
        integrate(HEIS, "forward", 10.0, opts, rhs=leaky)


@pytest.mark.parametrize("mu, scale", [(HEIS, 1e7), (HYP, 2e6)], ids=["heisenberg3", "hyperbolic3"])
def test_blowup_declared_without_a_fittable_tail_is_a_flow_error(mu, scale):
    # These large brackets are immortal forward, yet the norm-threshold
    # certificate fires after one step; the fit then has no tail to work on.
    with pytest.raises(FlowError, match="at least 10 samples"):
        integrate(scale_bracket(mu, scale), "forward", 10.0)


# --- blowup-time fitting ----------------------------------------------------

def test_fit_synthetic_half_power():
    t = np.linspace(0.0, 0.999, 1500)
    norms = (1.0 - t) ** -0.5
    fit = fit_power_blowup(t, norms)
    assert fit.omega == pytest.approx(1.0, abs=1e-9)
    assert fit.exponent == pytest.approx(-0.5, abs=1e-6)


def test_fit_synthetic_other_exponent():
    t = np.linspace(0.0, 0.4999, 1200)
    norms = 3.0 * (0.5 - t) ** -1.0
    fit = fit_power_blowup(t, norms)
    assert fit.omega == pytest.approx(0.5, abs=1e-9)
    assert fit.exponent == pytest.approx(-1.0, abs=1e-6)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-6)


def test_fit_refuses_thin_tail():
    t = np.linspace(0.0, 0.9, 5)
    norms = (1.0 - t) ** -0.5
    with pytest.raises(ValueError, match="at least 10 samples"):
        fit_power_blowup(t, norms)


def test_estimate_blowup_time_su2(su2_forward):
    est, (lo, hi) = estimate_blowup_time(su2_forward)
    assert est == pytest.approx(1.0, abs=1e-3)
    assert lo <= est <= hi
    assert su2_forward.verdict.exponent == pytest.approx(-0.5, abs=0.02)


def test_estimate_blowup_time_heis_backward(heis_backward):
    est, _ = estimate_blowup_time(heis_backward)
    assert est == pytest.approx(-1.0 / 3.0, abs=1e-3)


def test_estimate_blowup_time_requires_blowup():
    traj = integrate(HEIS, "forward", 1.0)
    with pytest.raises(ValueError, match="blowup"):
        estimate_blowup_time(traj)


# --- estimate report --------------------------------------------------------

def test_estimate_report_su2(su2_forward):
    rep = estimate_report(su2_forward)
    # the velocity/norm^3 ratio of the round metric is exactly 1/12
    assert rep.velocity_ratio_max == pytest.approx(1.0 / 12.0, rel=1e-10)
    assert rep.scalar_evolution_max_relerr <= 1e-4
    assert rep.monotone_R_violation <= 1e-9
    assert rep.tail_norm_floor == pytest.approx(np.sqrt(6.0), rel=0.01)
    assert rep.comparison_slack is not None
    assert rep.comparison_slack >= -1e-5


def test_estimate_report_heisenberg_monotone():
    traj = integrate(HEIS, "forward", 100.0)
    rep = estimate_report(traj)
    assert rep.monotone_R_violation <= 1e-9
    assert rep.tail_norm_floor is None
    assert rep.comparison_slack is None  # R(0) < 0


def test_estimate_report_flat_is_all_zero():
    rep = estimate_report(integrate(FLAT, "forward", 5.0))
    assert rep.velocity_ratio_max == 0.0
    assert rep.scalar_evolution_max_relerr == 0.0
    assert rep.monotone_R_violation == 0.0
    assert rep.tail_norm_floor is None
    assert rep.comparison_slack is None


def test_estimate_report_needs_enough_samples(su2_forward):
    import dataclasses

    short = dataclasses.replace(
        su2_forward,
        t=su2_forward.t[:5],
        mu_norm=su2_forward.mu_norm[:5],
        scalar_R=su2_forward.scalar_R[:5],
        tr_ric_sq=su2_forward.tr_ric_sq[:5],
        rhs_norm=su2_forward.rhs_norm[:5],
    )
    with pytest.raises(ValueError, match="20 samples"):
        estimate_report(short)


def test_scalar_evolution_identity_near_start(su2_forward):
    # dR/dt = 2 tr Ric^2: at t ~ 0 both sides are close to 2 * 3/4 = 3/2
    k = 3
    t, r = su2_forward.t, su2_forward.scalar_R
    fd = np.polyfit(t[k - 2 : k + 3] - t[k], r[k - 2 : k + 3], 4)[3]
    assert fd == pytest.approx(2.0 * su2_forward.tr_ric_sq[k], rel=1e-4)
    assert 2.0 * su2_forward.tr_ric_sq[0] == pytest.approx(1.5, abs=1e-14)


# --- extinction-time bounds -------------------------------------------------

def test_extinction_bound_forward_positive_R(su2_forward):
    n = su2_forward.dims.n
    bound = (n / 2.0) / su2_forward.scalar_R[0]
    assert su2_forward.verdict.omega_est <= bound + 1e-3
    assert su2_forward.verdict.omega_est == pytest.approx(bound, abs=1e-3)  # Einstein: equality


def test_extinction_bound_backward_negative_R(heis_backward):
    n = heis_backward.dims.n
    bound = (n / 2.0) / heis_backward.scalar_R[0]  # = -3
    assert heis_backward.verdict.omega_est >= bound - 1e-3


# --- type-I diagnostic ------------------------------------------------------

def test_type_I_su2_finite(su2_forward):
    val = type_I_diagnostic(su2_forward)
    # recorded, not asserted against any external number: finite and stable
    assert 0.0 < val < 10.0
    # for the round metric (omega - t) |Riem| is constant sqrt(3)/2
    assert val == pytest.approx(np.sqrt(0.75), rel=0.01)


def test_type_I_heis_backward_finite(heis_backward):
    val = type_I_diagnostic(heis_backward)
    assert np.isfinite(val) and val > 0.0


def test_type_I_rejects_non_blowup_and_isotropy():
    with pytest.raises(ValueError, match="blowup"):
        type_I_diagnostic(integrate(HEIS, "forward", 1.0))
    sphere = integrate(get_entry("sphere2_su2").bracket, "forward", 1.0)
    with pytest.raises(ValueError, match="q = 0"):
        type_I_diagnostic(sphere)


# --- dense output -------------------------------------------------------------

def test_dense_output_matches_closed_form():
    opts = IntegratorOptions(collect_dense=True)
    traj = integrate(SU2, "forward", 2.0, opts)
    from bracketflow import ricci_operator

    for t in (0.5, 0.9, 0.99):
        c = traj.dense(t).reshape(3, 3, 3)
        r = ricci_operator(LieBracket(traj.dims, c), check=False).scalar
        assert r == pytest.approx(1.5 / (1.0 - t), rel=1e-6)
    # the documented CSV example value: R(0.9) = 15
    c = traj.dense(0.9).reshape(3, 3, 3)
    r = ricci_operator(LieBracket(traj.dims, c), check=False).scalar
    assert abs(r - 15.0) <= 1e-4


def test_dense_output_range_checked():
    opts = IntegratorOptions(collect_dense=True)
    traj = integrate(HEIS, "forward", 1.0, opts)
    with pytest.raises(ValueError, match="outside"):
        traj.dense(2.0)
    with pytest.raises(ValueError, match="outside"):
        traj.dense(-0.5)


def test_dense_output_flat_covers_horizon():
    traj = integrate(FLAT, "forward", 5.0)
    assert np.all(traj.dense(3.7) == 0.0)
    with pytest.raises(ValueError, match="outside"):
        traj.dense(6.0)


# --- mutation sensitivity ----------------------------------------------------

def test_sign_flipped_dynamics_contradict_su2_blowup():
    flipped = lambda mu: scale_bracket(bracket_flow_rhs(mu), -1.0)
    traj = integrate(SU2, "forward", 2.0, rhs=flipped)
    assert traj.verdict.kind == "immortal"  # contradicts omega = 1
    rep = estimate_report(traj)
    assert rep.monotone_R_violation > 1e-3  # R visibly decreases
