import functools
import sys
import tracemalloc
import warnings
from collections.abc import Sequence
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bracketflow import (
    DriftError,
    IntegratorOptions,
    LieBracket,
    NotInVarietyError,
    StiffnessError,
    Verdict,
    bracket_norm,
    estimate_blowup_time,
    estimate_report,
    fit_power_blowup,
    flow,
    integrate,
    koszul_ricci_oracle,
    metric_flow,
    metric_flow_integrate,
    random_bracket,
    random_two_step_nilpotent,
    ricci_operator,
    scale_bracket,
    transform_bracket,
    type_I_diagnostic,
)
from bracketflow import algebra, cli, curvature
from bracketflow.catalog import catalog_entries, get_entry
from bracketflow.verify import AcceptanceLab

from oracles import milnor_singular_time, scipy_dense_solution

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

def _rhs(mu):
    # the bracket flow's RHS at mu through the run kernel on mu's flow table, as a bracket
    table = flow._flow_table(mu)
    dy = flow._default_rhs_tensor(flow._to_state(mu.c, table), table, flow._rhs_scratch(table))[0]
    return LieBracket(mu.dims, flow._to_tensor(dy, mu.dims.d, table))


def test_rhs_zero_is_fixed_point():
    assert np.all(_rhs(FLAT).c == 0.0)


def test_rhs_heisenberg_coefficient():
    # Ric = diag(-1/2,-1/2,1/2) makes dc/dt = -(Ric_33 - Ric_11 - Ric_22) c = -3/2
    out = _rhs(HEIS)
    assert out.c[0, 1, 2] == pytest.approx(-1.5, abs=1e-15)
    assert np.count_nonzero(out.c) == 2


def test_rhs_su2_is_half_mu():
    out = _rhs(SU2)
    assert np.allclose(out.c, 0.5 * SU2.c, atol=1e-15)


def test_rhs_cubic_scaling():
    rng = np.random.default_rng(21)
    mu = random_bracket(0, 4, rng)
    base = _rhs(LieBracket(mu.dims, mu.c))
    for c in (0.1, 10.0):
        got = _rhs(scale_bracket(mu, c))
        assert np.allclose(got.c, c**3 * base.c, rtol=1e-12)


BRACKETS = st.sampled_from([entry.bracket for entry in catalog_entries()]) | st.builds(
    lambda n, seed: random_two_step_nilpotent(n, np.random.default_rng(seed)),
    st.integers(3, 8),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(BRACKETS, st.floats(1e-3, 1e7))
def test_ricci_and_rhs_are_scale_covariant(mu, c):
    # Ric(c mu) = c^2 Ric(mu) and F(c mu) = c^3 F(mu), relative to |c mu|^2 and |c mu|^3
    q = mu.dims.q
    size = c * bracket_norm(mu)
    # in the stepper's state layout on the flow's table, the same for mu and c mu
    table = flow._flow_table(mu)
    scratch = flow._rhs_scratch(table)
    dmu, r = flow._default_rhs_tensor(flow._to_state(mu.c, table), table, scratch)
    dmu_c, r_c = flow._default_rhs_tensor(flow._to_state(c * mu.c, table), table, scratch)
    ric, ric_c = r[table.sym], r_c[table.sym]
    assert np.max(np.abs(ric_c - curvature._ricci_gemm(c * mu.c, q))) <= 1e-14 * size**2
    assert np.max(np.abs(ric_c - c**2 * ric)) <= 1e-12 * size**2
    assert abs(np.trace(ric_c) - c**2 * np.trace(ric)) <= 1e-12 * size**2
    assert np.max(np.abs(dmu_c - c**3 * dmu), initial=0.0) <= 1e-12 * size**3  # empty on the abelian support


def test_velocity_bound_over_random_brackets():
    # |dmu/dt| / |mu|^3 is bounded and exactly scale-invariant
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(1000):
        mu = random_bracket(0, int(rng.integers(3, 6)), rng)
        ratio = bracket_norm(_rhs(mu)) / bracket_norm(mu) ** 3
        worst = max(worst, ratio)
        if _ % 97 == 0:
            scaled = scale_bracket(mu, 10.0)
            r2 = bracket_norm(_rhs(scaled)) / bracket_norm(scaled) ** 3
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


def test_blowup_estimate_lies_between_last_sample_and_far_bound(su2_forward, heis_backward):
    # the enclosure [t_stop, far_bound] is shorter than STOP_REL |t_stop|, and
    # omega_est lies past t_stop and, up to rounding, not past far_bound
    for traj in (su2_forward, heis_backward):
        v = traj.verdict
        t_stop = traj.t[-1]
        sign = np.copysign(1.0, t_stop)
        gap = sign * (v.far_bound - t_stop)
        assert 0 < gap < flow.STOP_REL * abs(t_stop)
        assert sign * (v.omega_est - t_stop) > 0
        assert sign * (v.far_bound - v.omega_est) >= -1e-3 * gap


def test_verdict_has_three_fields_read_at_the_stop_sample():
    assert [f.name for f in fields(Verdict)] == ["kind", "omega_est", "far_bound"]


def test_integrator_options_are_two_tolerances_and_dense_output():
    # the drift bound and the step budget are module constants, not options
    assert [f.name for f in fields(IntegratorOptions)] == ["rel_tol", "membership_tol", "collect_dense"]
    assert (flow.DRIFT_TOL, flow.MAX_STEPS) == (1e-6, 200_000)


def test_both_flows_take_their_verdict_from_drive_once_per_run(monkeypatch):
    callers = []
    verdict = flow._verdict

    def traced(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return verdict(*args)

    monkeypatch.setattr(flow, "_verdict", traced)
    assert not hasattr(metric_flow, "_verdict")
    for run in (
        lambda: integrate(SU2, "forward", 2.0),
        lambda: integrate(HEIS, "backward", 1.0),
        lambda: metric_flow_integrate(SU2, np.eye(3), "forward", 2.0),
        lambda: metric_flow_integrate(HEIS, np.eye(3), "forward", 1.0),
    ):
        callers.clear()
        v = run().verdict
        assert callers == ["_drive"]
        assert v.kind in ("blowup", "immortal")


def test_membership_conserved_along_flow(su2_forward, heis_backward):
    for traj in (su2_forward, heis_backward):
        scale = 1.0 + traj.mu_norm**2
        assert np.max(traj.jacobi_residual / scale) <= 1e-8
        assert np.max(traj.h1_residual / scale) <= 1e-8
        assert np.max(traj.h3_residual / scale) <= 1e-8


def test_flat_input_returns_stationary_trajectory():
    traj = integrate(FLAT, "forward", 5.0)
    assert traj.verdict.kind == "flat"
    assert traj.n_samples == 33
    assert traj.residual_rows == 0
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


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf"), True])
def test_integrate_rejects_horizon_that_is_not_finite_and_positive(horizon):
    # an unchecked NaN horizon spins forever inside one solver step, and True
    # would be read as 1.0
    with pytest.raises(ValueError, match="horizon"):
        integrate(HEIS, "forward", horizon)
    with pytest.raises(ValueError, match="horizon"):
        integrate(FLAT, "backward", horizon)


@pytest.mark.parametrize(
    "bad",
    [
        {"rel_tol": float("nan")},
        {"rel_tol": -1.0},
        {"membership_tol": 0.0},
        {"membership_tol": float("inf")},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_integrator_options_reject_out_of_range_values(bad):
    # the error names every field it is about
    with pytest.raises(ValueError) as err:
        IntegratorOptions(**bad)
    assert all(name in str(err.value) for name in bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"rel_tol": True},
        {"membership_tol": False},
        {"membership_tol": np.True_},
        {"collect_dense": "no"},
        {"collect_dense": 1},
    ],
    ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()),
)
def test_integrator_options_reject_bools_as_numbers_and_non_bool_flags(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=name):
        IntegratorOptions(**bad)
    assert IntegratorOptions(collect_dense=np.True_).collect_dense


def test_integrate_uses_membership_tol_for_the_initial_bracket():
    # Jacobi residual 1e-9: rejected at the default tolerance, accepted at 1e-6
    mu = LieBracket.from_triples(0, 3, [(1, 2, 3, 1.0), (2, 3, 2, 1e-9)], one_indexed=True)
    with pytest.raises(NotInVarietyError, match=r"jacobi_residual = .* exceeds tolerance 1\.0e-10"):
        integrate(mu, "forward", 1.0)
    traj = integrate(mu, "forward", 1.0, IntegratorOptions(membership_tol=1e-6))
    assert traj.verdict.kind == "immortal"


def test_checkpoint_at_every_sample(su2_forward, heis_backward):
    for traj in (su2_forward, heis_backward):
        assert len(traj.checkpoints) == traj.n_samples
        assert np.array_equal([cp.t for cp in traj.checkpoints], traj.t)


def test_checkpoints_are_a_lazy_read_only_view(su2_forward):
    cps = su2_forward.checkpoints
    assert isinstance(cps, Sequence)
    assert len(cps) == su2_forward.n_samples
    first, last = cps[0], cps[-1]
    assert first.t == 0.0 and np.array_equal(first.mu.c, SU2.c)
    assert last.t == su2_forward.t[-1]
    assert bracket_norm(last.mu) == pytest.approx(su2_forward.mu_norm[-1], rel=1e-14)
    with pytest.raises(ValueError, match="read-only"):
        last.mu.c[0, 1, 2] = 0.0
    assert np.array_equal(cps[-1].mu.c, last.mu.c)
    with pytest.raises(IndexError):
        cps[len(cps)]
    part = cps[10:20:3]
    assert [cp.t for cp in part] == list(su2_forward.t[10:20:3])
    assert np.array_equal(part[-1].mu.c, cps[19].mu.c)
    assert [cp.t for cp in cps] == list(su2_forward.t)


def test_flat_checkpoints_are_the_same_view():
    traj = integrate(FLAT, "forward", 5.0)
    assert len(traj.checkpoints) == traj.n_samples
    assert all(cp.t == t and np.array_equal(cp.mu.c, FLAT.c) for cp, t in zip(traj.checkpoints, traj.t))


def test_integrate_builds_no_bracket_and_checks_conditions_once(monkeypatch):
    # the monitor reads its residuals off the raw tensor; only the initial
    # bracket goes through check_conditions
    calls = {"LieBracket": 0, "check_conditions": 0}
    for name in calls:
        def counted(*args, _fn=getattr(flow, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(flow, name, counted)
    traj = integrate(get_entry("sphere2_su2").bracket, "backward", 10.0)
    assert traj.n_samples > 50
    assert calls == {"LieBracket": 0, "check_conditions": 1}


def _patch_rhs(monkeypatch, change):
    # Every RHS evaluation of the bracket flow, the stages' and the
    # monitor's, returns change(dy, r) for the true flow's (dy, r).
    rhs = flow._default_rhs_tensor
    monkeypatch.setattr(flow, "_default_rhs_tensor", lambda y, table, scratch: change(*rhs(y, table, scratch)))


def _flip_the_flow(monkeypatch):
    _patch_rhs(monkeypatch, lambda dy, r: (-dy, r))


# sphere2_su2's support holds c[0, 1, 2], c[0, 2, 1] and c[1, 2, 0]; both of
# its residual rows are h3's, and read the first two entries' sum, 0 on the
# admissible brackets.
SPHERE = get_entry("sphere2_su2").bracket


def _leak_into_h3(monkeypatch) -> np.ndarray:
    # Add the returned vector, 0 until the caller writes it, to every
    # derivative of a run on sphere2_su2's support.
    leak = np.zeros(3)
    assert flow._residual_forms(3, 1, flow._flow_table(SPHERE).support).lin.dot([1.0, 0.0, 0.0]).all()
    _patch_rhs(monkeypatch, lambda dy, r: (dy + leak, r))
    return leak


def test_stiffness_failure_when_blowup_has_the_wrong_sign(monkeypatch):
    # hyperbolic3 run backward in forward time: it blows up at t = 1/4 with
    # R -> -inf, which no forward stop rule may read as a singularity, so
    # the steps in t fall below 10 ulps, 1e-16 short of 1/4
    _flip_the_flow(monkeypatch)
    with pytest.raises(StiffnessError, match=r"t = 0\.2499999999999"):
        integrate(HYP, "forward", 1.0)


def test_drift_failure_detected_with_broken_dynamics(monkeypatch):
    # push the state off the admissible brackets along an entry that an h3 row reads
    # the bound is read when the run starts, max(DRIFT_TOL, membership_tol)
    _leak_into_h3(monkeypatch)[0] = 1e-3
    monkeypatch.setattr(flow, "DRIFT_TOL", 1e-10)
    with pytest.raises(DriftError, match=r"exceeds 1\.0e-10"):
        integrate(SPHERE, "forward", 1.0)


def test_drift_failure_detected_on_the_table_path(monkeypatch):
    # A random bracket is far from the Jacobi variety: its Jacobi residual
    # relative to |mu|^2 is 0.0835 at t = 0, so it is admitted at
    # membership_tol = 0.1, which is then the drift bound.  It steps on its table (the whole
    # half at d = 3, whose three Jacobi rows the monitor reads off the
    # state), and the residual grows along the flow until the drift check
    # fires, at the 17th accepted step (sample 17, counting t = 0 as 0).
    mu = random_bracket(0, 3, np.random.default_rng(1))
    table = flow._flow_table(mu)
    assert table is not None and flow._residual_forms(3, 0, table.support).jac.rows == 3
    samples, relative = [], flow._relative_residuals

    def counted(*args):
        residuals = relative(*args)
        samples.append(max(residuals))
        return residuals

    monkeypatch.setattr(flow, "_relative_residuals", counted)
    opts = IntegratorOptions(membership_tol=0.1)
    with pytest.raises(DriftError, match=r"admissibility drift 1\.015e-01 exceeds 1\.0e-01 at t = 0\.08048"):
        integrate(mu, "forward", 1.0, opts)
    assert len(samples) == 18
    assert 0.08 < samples[0] < samples[-2] <= 0.1 < samples[-1]


def test_drift_is_measured_scale_free(monkeypatch):
    # A leak that scales as the RHS does, c^3, leaves c mu(t / c^2) a
    # solution of the leaky flow, so the drift, each residual relative to
    # |mu| to its degree, fires at the same value and at t / c^2.
    leak = _leak_into_h3(monkeypatch)
    monkeypatch.setattr(flow, "DRIFT_TOL", 1e-8)
    fired = set()
    for k in (-10, 0, 23):
        c = 2.0**k
        leak[0] = 1e-3 * c**3
        with pytest.raises(DriftError, match="drift 4.129e-08 exceeds") as err:
            integrate(scale_bracket(SPHERE, c), "forward", 1.0 / c**2)
        fired.add(float(str(err.value).rsplit("t = ", 1)[1]) * c**2)
    assert len(fired) == 1


@pytest.mark.parametrize("mu, scale", [(HEIS, 1e7), (HYP, 2e6)], ids=["heisenberg3", "hyperbolic3"])
def test_large_immortal_brackets_stay_immortal(mu, scale):
    # |mu| is large from the start, but R < 0 forward, so the stop rule never fires
    traj = integrate(scale_bracket(mu, scale), "forward", 10.0)
    assert traj.verdict.kind == "immortal" and traj.t[-1] == 10.0


# The q = 0 catalog runs that are immortal: stepped in physical time, each
# raised StiffnessError far enough out (nilpotent4 forward at t = 2.28e41 on
# its way to 1e44; the others on their way to 1e60, from |t| = 1.2e44 to
# 5.1e46).
FAR_IMMORTAL = [("nilpotent4", "forward"), ("heisenberg3", "forward"), ("hyperbolic3", "forward"),
                ("hyperbolic_plane", "forward"), ("su2_round", "backward")]


@pytest.mark.parametrize("name, direction", FAR_IMMORTAL)
def test_a_q0_immortal_run_reaches_a_horizon_of_1e60(name, direction):
    # On the normalized state nu, |nu| = 1, the run is a slow approach to a
    # fixed point at tau = inf and the physical time is theta / |mu0|^2.
    traj = integrate(get_entry(name).bracket, direction, 1e60)
    assert traj.verdict.kind == "immortal"
    assert traj.t[-1] == (1e60 if direction == "forward" else -1e60)
    assert traj.n_samples < 3000


def test_a_catalog_run_to_1e44_exits_0(tmp_path):
    assert cli.main(["--out", str(tmp_path), "catalog", "run", "nilpotent4", "--horizon", "1e44"]) == 0


def _seed0_nilpotent(n):
    return random_two_step_nilpotent(n, np.random.default_rng(0))


Q0_RUNS = [
    (f"{e.name}/{d}", e.bracket, d, e.default_horizon[d], *e.expected[d])
    for e in catalog_entries()
    for d in ("forward", "backward")
    if e.bracket.dims.q == 0 and e.expected[d][0] != "flat"
] + [(f"nilpotent/n={n}/backward", _seed0_nilpotent(n), "backward", 10.0, "blowup", None) for n in (6, 9, 13)]


@pytest.mark.parametrize("label, mu, direction, horizon, kind, omega", Q0_RUNS, ids=[run[0] for run in Q0_RUNS])
def test_a_q0_run_stops_in_at_most_200_samples(label, mu, direction, horizon, kind, omega):
    # A type-I blowup is a fixed point of the normalized flow at tau = inf,
    # so the tau steps reach the stop rule in 89 to 95 samples on the
    # catalog (461 to 512 in physical time) and 126 to 148 on the seed-0
    # nilpotent brackets (488 to 528).  The singular time is within 5
    # rel_tol of its closed form, and an immortal run ends exactly at the
    # horizon.
    traj = integrate(mu, direction, horizon)
    assert traj.n_samples <= 200 and traj.verdict.kind == kind
    if kind == "immortal":
        assert traj.t[-1] == (horizon if direction == "forward" else -horizon)
    if omega is not None:
        assert abs(traj.verdict.omega_est - omega) <= 5 * IntegratorOptions().rel_tol * abs(omega)


@pytest.mark.parametrize("k", [-200, 160, 200, 240])
def test_the_monitors_series_keep_the_scale_rule_far_out(k):
    # su(2) times 2^k over the horizon 2 / 4^k is k = 0's run rescaled.  The
    # monitor takes |mu|^2 and |dmu/dt|^2 of its vectors divided by a power
    # of 2, so they neither overflow (|dmu/dt|^2 grows as |mu|^6, past the
    # float range from k = 160 on) nor underflow (at k = -200), and each
    # series is exactly c, c^3 and c^4 times k = 0's.
    c = 2.0**k
    ref, traj = integrate(SU2, "forward", 2.0), integrate(scale_bracket(SU2, c), "forward", 2.0 / c**2)
    assert traj.n_samples == ref.n_samples
    assert np.array_equal(traj.mu_norm, ref.mu_norm * c)
    assert np.array_equal(traj.rhs_norm, ref.rhs_norm * c**3)
    assert np.array_equal(traj.tr_ric_sq, ref.tr_ric_sq * c**4)


# The flat metric on E(2): [e3, e1] = e2 and [e3, e2] = -e1.  Ric = 0 at
# P = I although |mu| = 2, so both flows sit at a fixed point.
E2_FLAT = LieBracket.from_triples(0, 3, [(3, 1, 2, 1.0), (3, 2, 1, -1.0)], one_indexed=True)


@pytest.mark.parametrize("k", [-20, 0, 23])
def test_a_nonzero_fixed_point_reaches_the_horizon_in_one_step(k):
    # On the metric flow the derivative is exactly 0: the first step's
    # heuristic has neither a rate |f| nor a change of f to read, and takes
    # the whole interval at every scale, with no division by zero (Tier-1
    # fails on a warning).
    c = 2.0**k
    mu = scale_bracket(E2_FLAT, c)
    assert bracket_norm(mu) == 2.0 * c and np.all(_rhs(mu).c == 0.0)
    for direction, end in (("forward", 10.0), ("backward", -10.0)):
        traj = metric_flow_integrate(mu, np.eye(3), direction, 10.0 / c**2)
        assert traj.verdict.kind == "immortal"
        assert traj.n_samples == 2 and traj.t[-1] * c**2 == end
        assert np.all(traj.scalar_R == 0.0)


def test_a_nonzero_fixed_point_of_the_bracket_flow_stays_put_in_tau():
    # In tau, theta = |mu0|^2 t always moves (dtheta/dtau = e^(-2 sigma) = 1
    # here), so the run steps: nu and sigma stay exactly put, every step is
    # exact, and the step grows tenfold per step until the horizon, the same
    # steps at every scale, the last sample at exactly the horizon.
    counts = set()
    for k in (-20, 0, 23):
        c = 2.0**k
        mu = scale_bracket(E2_FLAT, c)
        for direction, end in (("forward", 10.0), ("backward", -10.0)):
            traj = integrate(mu, direction, 10.0 / c**2)
            assert traj.verdict.kind == "immortal"
            assert traj.t[-1] * c**2 == end and np.all(traj.scalar_R == 0.0)
            assert np.all(traj.mu_norm == traj.mu_norm[0]) and np.all(traj.rhs_norm == 0.0)
            counts.add(traj.n_samples)
    assert len(counts) == 1 and counts.pop() < 15


# --- the scale-free stop rule ------------------------------------------------

# Every catalog entry both ways, and a two-step nilpotent bracket backward:
# (label, bracket, direction, horizon at c = 1).
SCALE_RUNS = [
    (f"{e.name}-{direction}", e.bracket, direction, e.default_horizon[direction])
    for e in catalog_entries()
    for direction in ("forward", "backward")
] + [("nilpotent6-backward", random_two_step_nilpotent(6, np.random.default_rng(0)), "backward", 10.0)]


# The metric flow from P0 = I runs the q = 0 inputs too (its zero bracket is
# 'immortal', as it has no 'flat' verdict); the bracket-flow cases keep the
# inputs' labels.
SCALE_CASES = [pytest.param(k, "bracket", id=run[0]) for k, run in enumerate(SCALE_RUNS)] + [
    pytest.param(k, "metric", id=f"metric-{run[0]}") for k, run in enumerate(SCALE_RUNS) if run[1].dims.q == 0
]


def _scaled_run(k, flow_name, c):
    _, mu, direction, horizon = SCALE_RUNS[k]
    mu = scale_bracket(mu, c)
    if flow_name == "metric":
        return metric_flow_integrate(mu, np.eye(mu.dims.n), direction, horizon / c**2)
    return integrate(mu, direction, horizon / c**2)


@functools.cache
def _unscaled_verdict(k, flow_name):
    return _scaled_run(k, flow_name, 1.0).verdict


def _assert_encloses(traj, slack):
    # t_stop and far_bound enclose omega_est, on both flows
    v = traj.verdict
    sign = np.copysign(1.0, traj.t[-1])
    assert sign * (v.omega_est - traj.t[-1]) >= -slack
    assert sign * (v.far_bound - v.omega_est) >= -slack


@pytest.mark.parametrize("k, flow_name", SCALE_CASES)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(log_c=st.floats(-3.0, 7.0))
@example(log_c=-3.0)
@example(log_c=7.0)
def test_verdict_is_scale_covariant(k, flow_name, log_c):
    # c mu(t / c^2) solves the flow, so the run of c mu over horizon / c^2
    # gives the same verdict at singular time omega / c^2
    c = 10.0**log_c
    want = _unscaled_verdict(k, flow_name)
    traj = _scaled_run(k, flow_name, c)
    got = traj.verdict
    assert got.kind == want.kind
    if want.kind == "blowup":
        assert abs(c**2 * got.omega_est - want.omega_est) <= 1e-3
        _assert_encloses(traj, 1e-12 * abs(got.omega_est))


SU2_DRAWS = [12.0 * g for g in np.random.default_rng(0).standard_normal((6, 3, 3))]


@pytest.mark.parametrize(
    "k, flow_name",
    [pytest.param(k, "bracket", id=str(k)) for k in range(len(SU2_DRAWS))]
    + [pytest.param(k, "metric", id=f"metric-{k}") for k in range(len(SU2_DRAWS))],
)
def test_su2_metric_blows_up_at_the_milnor_frame_time(k, flow_name):
    # random left-invariant metrics on SU(2), with singular times from 57
    # to 464, against the 3-variable flow in their Milnor frames; the metric
    # flow from P0 = g^T g over su(2) is isometric to the bracket flow from g.mu
    g = SU2_DRAWS[k]
    mu = transform_bracket(SU2, g)
    if flow_name == "metric":
        traj = metric_flow_integrate(SU2, g.T @ g, "forward", 5000.0)
    else:
        traj = integrate(mu, "forward", 5000.0)
    v = traj.verdict
    omega = milnor_singular_time(mu.c)
    assert v.kind == "blowup"
    assert abs(v.omega_est - omega) <= 1e-9 * omega
    _assert_encloses(traj, 1e-12 * omega)


# --- bit identity under c = 2^k ------------------------------------------------

# Inputs of both flows: (label, bracket of the bracket flow, (bracket, P0) of
# the metric flow or None where q > 0, direction, horizon at c = 1).  The
# catalog both ways, seeded two-step nilpotent brackets at n <= 9 both ways,
# and the SU(2) draws checked against the Milnor-frame oracle above.
BIT_RUNS = (
    [
        (label, mu, (mu, np.eye(mu.dims.n)) if mu.dims.q == 0 else None, direction, horizon)
        for label, mu, direction, horizon in SCALE_RUNS[:-1]
    ]
    + [
        (f"nilpotent{n}-{seed}-{direction}", mu, (mu, np.eye(n)), direction, 10.0)
        for n in (6, 9)
        for seed in (0, 1)
        for mu in [random_two_step_nilpotent(n, np.random.default_rng(seed))]
        for direction in ("forward", "backward")
    ]
    + [(f"milnor-{k}", transform_bracket(SU2, g), (SU2, g.T @ g), "forward", 5000.0) for k, g in enumerate(SU2_DRAWS)]
)
BIT_LABELS = [run[0] for run in BIT_RUNS]
BIT_CASES = [(k, "bracket") for k in range(len(BIT_RUNS))] + [
    (k, "metric") for k, run in enumerate(BIT_RUNS) if run[2] is not None
]


def _bit_run(k, flow_name, c):
    # the run of c mu (the bracket flow), or of P0 / c^2 over mu (the metric
    # flow), over horizon / c^2
    _, mu, metric_input, direction, horizon = BIT_RUNS[k]
    if flow_name == "metric":
        base, p0 = metric_input
        return metric_flow_integrate(base, p0 / c**2, direction, horizon / c**2)
    # The admissibility check of the initial bracket reads each residual
    # relative to |mu| to its degree, so the default membership_tol accepts
    # the rescaled Milnor draws (Jacobi residual up to 3.3e-16 at c = 1,
    # rounding) at every c as it accepts the draws.
    return integrate(scale_bracket(mu, c), direction, horizon / c**2)


@functools.cache
def _bit_record(k, flow_name, c=1.0):
    # what a run says in the units of c = 1: its samples' t c^2 and R / c^2,
    # the verdict kind and its two times times c^2
    traj = _bit_run(k, flow_name, c)
    v, c2 = traj.verdict, c * c
    times = [None if x is None else x * c2 for x in (v.omega_est, v.far_bound)]
    return traj.n_samples, (traj.t * c2).tolist(), (traj.scalar_R / c2).tolist(), v.kind, times


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(BIT_CASES), k=st.integers(-20, 23))
@example(case=(BIT_LABELS.index("su2_round-forward"), "metric"), k=23)
@example(case=(BIT_LABELS.index("su2_round-forward"), "metric"), k=300)
@example(case=(BIT_LABELS.index("su2_round-forward"), "metric"), k=-300)
@example(case=(BIT_LABELS.index("su2_round-forward"), "metric"), k=-500)
@example(case=(BIT_LABELS.index("sphere2_times_line-backward"), "bracket"), k=-20)
@example(case=(BIT_LABELS.index("milnor-5"), "bracket"), k=23)
def test_runs_are_bit_identical_under_power_of_2_rescaling(case, k):
    # Every product in the RHS, the stop rule and the step control scales
    # exactly under mu -> 2^k mu, t -> t / 4^k (P0 -> P0 / 4^k on the metric
    # side), so the rescaled run takes the same steps bit for bit.  The
    # sums of squares (|P0|, the initial step's norms, tr Ric^2 of the
    # verdict) are taken of prescaled vectors, so this holds past the range
    # where those squares overflow or underflow: P0 = 2^-600 I at k = 300,
    # 2^1000 I at k = -500.
    assert _bit_record(*case, 2.0**k) == _bit_record(*case)


# (entry, direction, horizon short of the singularity, singular time)
SHORT_RUNS = [
    ("su2_round", "forward", 0.5, 1.0),
    ("sphere2_su2", "forward", 0.25, 0.5),
    ("heisenberg3", "backward", 0.2, -1.0 / 3.0),
]


@pytest.mark.parametrize(
    "name, direction, horizon, omega, flow_name",
    [(*run, "bracket") for run in SHORT_RUNS]
    + [(*run, "metric") for run in SHORT_RUNS if get_entry(run[0]).bracket.dims.q == 0],
)
def test_immortal_run_reports_the_far_bound_once_R_has_the_sign_of_time(name, direction, horizon, omega, flow_name):
    # short of the singularity R already has the sign of the time direction,
    # so t_end +- n / (2|R(t_end)|) bounds it; the Einstein entries meet the
    # bound with equality, up to rounding
    mu = get_entry(name).bracket

    def verdict(direction):
        if flow_name == "metric":
            return metric_flow_integrate(mu, np.eye(mu.dims.n), direction, horizon).verdict
        return integrate(mu, direction, horizon).verdict

    v = verdict(direction)
    assert v.kind == "immortal" and v.omega_est is None
    sign = np.copysign(1.0, omega)
    assert sign * (v.far_bound - omega) >= -1e-9 * abs(omega)
    # the other direction, where R has the wrong sign, bounds nothing
    assert verdict("backward" if direction == "forward" else "forward").far_bound is None


# --- the singular time from the stop sample -----------------------------------

# The catalog's blowups on the bracket flow, and on the metric flow from P0 = I
# where q = 0: (index into SCALE_RUNS, flow, closed-form singular time).
CATALOG_BLOWUPS = [
    pytest.param(k, flow_name, e.expected[direction][1], id=f"{flow_name}-{e.name}-{direction}")
    for k, (e, direction) in enumerate((e, d) for e in catalog_entries() for d in ("forward", "backward"))
    if e.expected[direction][0] == "blowup"
    for flow_name in ("bracket", "metric")
    if flow_name == "bracket" or e.bracket.dims.q == 0
]


@pytest.mark.parametrize("k, flow_name, omega", CATALOG_BLOWUPS)
def test_catalog_blowup_is_located_to_1e_9(k, flow_name, omega):
    assert SCALE_RUNS[k][2] == ("forward" if omega > 0 else "backward")
    v = _unscaled_verdict(k, flow_name)
    assert v.kind == "blowup"
    assert abs(v.omega_est - omega) <= 1e-9 * abs(omega)


def test_a_blowup_with_fewer_than_10_samples_gets_its_verdict():
    # P(t) is linear in t here, so the error estimate is 0 and the steps
    # grow tenfold up to the stop: the last two decades of |R| hold fewer
    # samples than the power-law fit needs, the stop sample alone locates
    # omega = -0.5 / c^2
    for c in (1.0, 1e4):
        mu = scale_bracket(get_entry("hyperbolic_plane").bracket, c)
        traj = metric_flow_integrate(mu, np.eye(2), "backward", 10.0 / c**2)
        with pytest.raises(ValueError, match="got 5"):  # the case is live
            fit_power_blowup(np.abs(traj.t), np.abs(traj.scalar_R))
        assert traj.verdict.kind == "blowup"
        assert abs(c**2 * traj.verdict.omega_est + 0.5) <= 1e-15


def _stop_ricci(n, r, excess):
    # A diagonal Ric with trace r up to rounding and tr Ric^2 = r^2 / n
    # (1 + excess): r / n on the diagonal, moved by +-delta on two entries.
    delta = abs(r) * np.sqrt(excess / (2 * n))
    ric = np.diag(np.full(n, r / n))
    ric[0, 0] += delta
    ric[1, 1] -= delta
    return ric


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 13),
    t=st.floats(1e-3, 1e3),
    r=st.floats(1e-3, 1e9),
    excess=st.floats(0.0, 10.0),
    backward=st.booleans(),
    k=st.integers(-250, 250),
)
@example(n=3, t=1.0, r=1e9, excess=0.0, backward=False, k=0)
@example(n=3, t=1.0, r=1e9, excess=1.0, backward=False, k=250)
@example(n=3, t=1e3, r=1e-3, excess=1.0, backward=True, k=-250)
def test_the_stop_sample_verdict_is_scale_covariant_and_enclosed(n, t, r, excess, backward, k):
    # t and R of one sign and tr Ric^2 >= R^2 / n, as at a stop
    if backward:
        t, r = -t, -r
    ric = _stop_ricci(n, r, excess)
    v = flow._verdict(True, t, ric, n)
    assert v.kind == "blowup"
    ulps = 4 * np.spacing(abs(v.omega_est))
    assert abs(v.omega_est - (t + ric.trace() / (2.0 * np.sum(ric * ric)))) <= ulps
    # under mu -> c mu with c = 2^k, t -> t / c^2, Ric -> c^2 Ric: bit for
    # bit, also where R^2 and tr Ric^2 overflow or underflow (|k| > 128 or so)
    c2 = 2.0 ** (2 * k)
    scaled = flow._verdict(True, t / c2, ric * c2, n)
    assert scaled.omega_est == v.omega_est / c2 and scaled.far_bound == v.far_bound / c2
    # inside [t, far_bound] up to a few ulps
    lo, hi = sorted((t, v.far_bound))
    assert lo - ulps <= v.omega_est <= hi + ulps
    # at the Einstein tie tr Ric^2 = R^2 / n it is the far bound; with a
    # power of 2 on the diagonal both sums are exact
    einstein = flow._verdict(True, t, np.copysign(2.0 ** np.round(np.log2(abs(r) / n)), r) * np.eye(n), n)
    assert einstein.omega_est == einstein.far_bound


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
    # the enclosure is t_stop and far_bound, in time order
    est, (lo, hi) = estimate_blowup_time(su2_forward)
    assert est == pytest.approx(1.0, abs=1e-3)
    assert (lo, hi) == (su2_forward.t[-1], su2_forward.verdict.far_bound)
    assert lo <= est <= hi
    # the growth exponent is an opt-in diagnostic, off the verdict path
    assert fit_power_blowup(su2_forward.t, su2_forward.mu_norm).exponent == pytest.approx(-0.5, abs=0.02)


def test_estimate_blowup_time_heis_backward(heis_backward):
    est, (lo, hi) = estimate_blowup_time(heis_backward)
    assert est == pytest.approx(-1.0 / 3.0, abs=1e-3)
    assert (lo, hi) == (heis_backward.verdict.far_bound, heis_backward.t[-1])
    assert lo <= est <= hi


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


@pytest.mark.parametrize("k", [-20, -10, 10, 23])
@pytest.mark.parametrize("name", ["su2_round", "sphere2_su2", "sphere2_times_line"])
def test_comparison_slack_is_bit_identical_under_power_of_2_rescaling(name, k):
    # The forward runs with R(0) > 0.  The slack is read in units of the
    # comparison solution, which scales as R does, and the run of 2^k mu
    # takes the same steps bit for bit, so the slack is the same number at
    # every scale (as R - comp it read -2.2e-13, -2.3e-7 and -0.246 on
    # su2_round at k = -10, 0 and 10).  R never falls below the comparison
    # solution but by rounding.
    entry = get_entry(name)

    def slack(c):
        traj = integrate(scale_bracket(entry.bracket, c), "forward", entry.default_horizon["forward"] / c**2)
        return estimate_report(traj).comparison_slack

    ref = slack(1.0)
    assert ref >= -1e-8
    assert slack(2.0**k) == ref


def test_comparison_slack_shows_the_margin_of_sphere2_times_line():
    # R runs above the comparison solution once t > 0, by 7.35e-5 of it at
    # the least.  The t = 0 sample is not read: there the two are equal, and
    # the slack could never be positive.
    entry = get_entry("sphere2_times_line")
    traj = integrate(entry.bracket, "forward", entry.default_horizon["forward"])
    assert traj.t[0] == 0.0 and traj.scalar_R[0] > 0
    assert 5e-5 < estimate_report(traj).comparison_slack < 1e-4


@pytest.mark.parametrize(
    "direction, horizon, rel_tol, samples", [("forward", 1e-3, 1e-10, 7), ("backward", 2.0, 1e-6, 10)]
)
def test_a_short_run_gets_a_report_with_every_field(direction, horizon, rel_tol, samples):
    # dR/dt is read at each sample off its own derivative, so a run of a
    # few samples gets the whole report: su(2) forward to 1e-3, and C5's
    # run, su(2) backward to 2 at a loose tolerance.
    traj = integrate(SU2, direction, horizon, IntegratorOptions(rel_tol=rel_tol))
    assert traj.n_samples == samples and traj.verdict.kind == "immortal"
    rep = estimate_report(traj)
    assert rep.velocity_ratio_max == pytest.approx(1.0 / 12.0, rel=1e-10)
    assert rep.scalar_evolution_max_relerr <= 1e-15
    assert rep.monotone_R_violation == 0.0
    assert rep.tail_norm_floor is None
    if direction == "forward":
        assert 0.0 <= rep.comparison_slack <= 1e-10
    else:
        assert rep.comparison_slack is None


@pytest.mark.parametrize("fixture", ["su2_forward", "heis_backward"])
def test_the_derivatives_and_norms_of_a_run_are_its_samples(fixture, request):
    # one derivative per sample, the flow's RHS at that sample's state, in
    # its layout; |mu| and |dmu/dt|, taken once per run, are the per-sample
    # dots bit for bit
    traj = request.getfixturevalue(fixture)
    states = traj.checkpoints._states
    assert len(traj.rhs) == len(states) == traj.n_samples
    table = flow._flow_table(traj.initial)
    for k in (0, 1, traj.n_samples - 1):
        expected = flow._default_rhs_tensor(states[k], table, flow._rhs_scratch(table))[0]
        assert np.array_equal(traj.rhs[k], expected)
    assert traj.mu_norm.tolist() == [np.sqrt(2 * float(y.dot(y))) for y in states]
    assert traj.rhs_norm.tolist() == [np.sqrt(2 * float(dy.dot(dy))) for dy in traj.rhs]
    flat = integrate(FLAT, "forward", 5.0)
    assert len(flat.rhs) == 33 and all(dy.shape == (0,) for dy in flat.rhs)


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


def _type_I_every_checkpoint(traj):
    # the former loop: every checkpoint, kept when its own norm reaches the
    # cutoff and it lies farther from omega than TAIL_GAP_REL |omega|
    omega = traj.verdict.omega_est
    cutoff = traj.mu_norm[-1] / 100.0
    best = 0.0
    for cp in traj.checkpoints:
        if bracket_norm(cp.mu) < cutoff or abs(omega - cp.t) < flow.TAIL_GAP_REL * abs(omega):
            continue
        riem = np.sqrt(koszul_ricci_oracle(cp.mu).riem_sq)
        best = max(best, abs(omega - cp.t) * riem)
    return float(best)


@pytest.mark.parametrize(
    "name, direction", [("su2_round", "forward"), ("heisenberg3", "backward"), ("nilpotent4", "backward")]
)
def test_type_I_reads_only_the_fit_tail(monkeypatch, name, direction):
    entry = get_entry(name)
    traj = integrate(entry.bracket, direction, entry.default_horizon[direction])
    expected = _type_I_every_checkpoint(traj)
    built = []

    def counted(*args, _cls=flow.LieBracket):
        built.append(args)
        return _cls(*args)

    monkeypatch.setattr(flow, "LieBracket", counted)
    assert type_I_diagnostic(traj) == expected
    tail = traj.mu_norm >= traj.mu_norm[-1] / 100.0
    resolved = np.abs(traj.verdict.omega_est - traj.t) >= flow.TAIL_GAP_REL * abs(traj.verdict.omega_est)
    assert 0 < len(built) == np.count_nonzero(tail & resolved) < np.count_nonzero(tail)


def test_tail_diagnostics_ignore_samples_below_the_resolution_of_omega(su2_forward):
    # Near the last sample |omega_est - t| is ~8e-10, below the resolution
    # TAIL_GAP_REL |omega_est|; a few ulps of omega_est must not move either
    # diagnostic off its closed form: sqrt(3)/2 and sqrt(6) for the round S^3.
    traj = su2_forward
    omega = traj.verdict.omega_est
    assert np.min(np.abs(omega - traj.t)) < flow.TAIL_GAP_REL * abs(omega)  # the case is live
    for shift in (0.0, 4e-16, -4e-16):
        moved = replace(traj, verdict=replace(traj.verdict, omega_est=omega * (1.0 + shift)))
        assert type_I_diagnostic(moved) == pytest.approx(np.sqrt(0.75), rel=1e-6)
        assert estimate_report(moved).tail_norm_floor == pytest.approx(np.sqrt(6.0), rel=1e-6)


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


def test_dense_output_reads_physical_time_to_the_accuracy_of_the_samples():
    # su(2) forward: R (1 - t) = 3/2 exactly.  The samples' times and the
    # dense output read theta by quadrature of e^(-2 sigma) over each step,
    # both within 2e-13 of it up to t = 0.999; at weight 100 on theta the
    # stepper's own theta put the samples 4.3e-9 off, and its quartic the
    # dense output 3.7e-8.  A knot reads its sample, and the last sample of
    # an immortal run, the end of its cut step, bit for bit.
    traj = integrate(SU2, "forward", 2.0, IntegratorOptions(collect_dense=True))
    on = traj.t <= 0.999
    sampled = np.max(np.abs(traj.scalar_R[on] * (1.0 - traj.t[on]) / 1.5 - 1.0))
    t = 0.999 * np.linspace(0.0, 1.0, 2001)
    ric = curvature._ricci_gemm(np.ascontiguousarray(traj.dense(t).T).reshape(-1, 3, 3, 3), 0)
    read = np.max(np.abs(np.trace(ric, axis1=1, axis2=2) * (1.0 - t) / 1.5 - 1.0))
    assert sampled < 1e-8 and read < 1.5 * sampled
    for k in (0, traj.n_samples // 2, traj.n_samples - 1):
        np.testing.assert_allclose(traj.dense(traj.t[k]), traj.checkpoints[k].mu.c.ravel(), rtol=1e-14)
    back = integrate(SU2, "backward", 2.0, IntegratorOptions(collect_dense=True))
    assert back.t[-1] == -2.0 and np.array_equal(back.dense(-2.0), back.checkpoints[-1].mu.c.ravel())


def test_dense_output_range_checked():
    opts = IntegratorOptions(collect_dense=True)
    traj = integrate(HEIS, "forward", 1.0, opts)
    with pytest.raises(ValueError, match="outside"):
        traj.dense(2.0)
    with pytest.raises(ValueError, match="outside"):
        traj.dense(-0.5)


def test_dense_output_backward_matches_closed_form():
    traj = integrate(HEIS, "backward", 1.0, IntegratorOptions(collect_dense=True))
    from bracketflow import ricci_operator

    for t in (-0.1, -0.3, -0.333):
        c = traj.dense(t).reshape(3, 3, 3)
        r = ricci_operator(LieBracket(traj.dims, c), check=False).scalar
        assert r == pytest.approx(-1.0 / (2.0 * (1.0 + 3.0 * t)), rel=1e-6)
    for t in (0.1, -0.5):
        with pytest.raises(ValueError, match="outside"):
            traj.dense(t)


def _dense_run(run):
    opts = IntegratorOptions(collect_dense=True)
    if run == "su2_round":
        return integrate(SU2, "forward", 2.0, opts)
    if run == "flat":
        return integrate(FLAT, "forward", 5.0, opts)
    return metric_flow_integrate(HEIS, np.eye(3), "backward", 1.0, opts)


@pytest.mark.parametrize("run", ["su2_round", "flat", "metric"])
def test_dense_vector_call_equals_the_scalar_loop(run):
    traj = _dense_run(run)
    # unsorted, with a repeat and both ends of the range
    t = np.random.default_rng(2).permutation(np.linspace(traj.t[0], traj.t[-1], 41))
    t = np.append(t, t[3])
    states = traj.dense(t)
    assert states.shape == (traj.dense(t[0]).size, len(t))
    assert np.array_equal(states, np.stack([traj.dense(s) for s in t], axis=1))


@pytest.mark.parametrize("name, direction, horizon", [("su2_round", "forward", 2.0), ("heisenberg3", "backward", 1.0)])
def test_dense_output_equals_scipys_ode_solution(name, direction, horizon):
    # The same segments read through scipy's OdeSolution over their own
    # time tau, bit for bit: at every knot, where both read the segment of
    # lower index, and on an unsorted array with repeated times.  A
    # physical time reads them at its tau, and the tensor is |mu0| e^sigma
    # nu there, mirrored.
    traj = integrate(get_entry(name).bracket, direction, horizon, IntegratorOptions(collect_dense=True))
    steps = traj.dense.interpolants
    knots = np.array([s.t_old for s in steps] + [steps[-1].t_old + steps[-1].h])
    ours = flow.DenseSolution(knots, steps)
    ref = scipy_dense_solution(knots, steps)
    for tau in knots:
        assert np.array_equal(ours(tau), ref(tau))
    rng = np.random.default_rng(5)
    tau = rng.permutation(np.concatenate([knots, np.linspace(knots[0], knots[-1], 60)]))
    tau = np.append(tau, rng.choice(tau, 9))
    assert np.array_equal(ours(tau), ref(tau))
    t = rng.permutation(np.concatenate([traj.t, np.linspace(traj.t[0], traj.t[-1], 60)]))
    t = np.append(t, rng.choice(t, 9))
    z = ref(traj.dense.tau(t))
    u = (bracket_norm(traj.initial) * np.exp(z[-2])) * z[:-2]
    table = curvature._flow_table(traj.initial)
    assert np.array_equal(traj.dense(t), flow._to_tensor(u, traj.dims.d, table).reshape(-1, len(t)))
    # one ulp past either end of the run is refused
    for end, away in ((knots[0], -knots[-1]), (knots[-1], 2 * knots[-1])):
        with pytest.raises(ValueError, match="outside"):
            ours(np.nextafter(end, away))
    for end, away in ((traj.t[0], -traj.t[-1]), (traj.t[-1], 2 * traj.t[-1])):
        with pytest.raises(ValueError, match="outside"):
            traj.dense(np.nextafter(end, away))


@pytest.mark.parametrize("bad", [1.5, -0.5])
def test_dense_vector_call_range_checked(bad):
    opts = IntegratorOptions(collect_dense=True)
    for traj in (integrate(HEIS, "forward", 1.0, opts), integrate(FLAT, "forward", 1.0)):
        t = np.linspace(0.0, 1.0, 11)
        t[5] = bad
        with pytest.raises(ValueError, match="outside"):
            traj.dense(t)


def test_dense_takes_a_scalar_or_a_1d_time_only():
    # As `stepper.DenseStep` does, both flows' dense output refuses a time
    # array of more dimensions with a ValueError, before any segment is
    # read; a list of times reads as the 1-d array.
    opts = IntegratorOptions(collect_dense=True)
    for traj in (integrate(HEIS, "forward", 1.0, opts), metric_flow_integrate(HEIS, np.eye(3), "forward", 1.0, opts)):
        with pytest.raises(ValueError, match="`t` must be a float or a 1-D array"):
            traj.dense(np.array([[0.1, 0.2]]))
        assert np.array_equal(traj.dense([0.1, 0.2]), traj.dense(np.array([0.1, 0.2])))


@pytest.mark.parametrize("run, size", [("su2_round", 27), ("flat", 27), ("metric", 9)])
def test_dense_reads_an_empty_time_array_as_no_state(run, size):
    # As `stepper.DenseStep` does: an empty time array reads an array of no
    # column, d^3 rows on the bracket flow and n^2 on the metric flow
    traj = _dense_run(run)
    for t in (np.array([]), []):
        empty = traj.dense(t)
        assert empty.shape == (size, 0) and empty.dtype == np.float64


def test_dense_output_flat_covers_horizon():
    # the stationary solution at every time: a fresh state per scalar time,
    # one column per time for an array, over the whole range only
    for sign, direction in ((1.0, "forward"), (-1.0, "backward")):
        traj = integrate(FLAT, direction, 5.0)
        state = traj.dense(sign * 3.7)
        assert state.shape == (27,) and np.all(state == 0.0)
        state[0] = 1.0
        assert traj.dense(sign * 3.7)[0] == 0.0
        t = sign * np.array([0.0, 5.0, 1.25, 1.25])
        assert np.array_equal(traj.dense(t), np.zeros((27, 4)))
        with pytest.raises(ValueError, match="outside"):
            traj.dense(sign * 6.0)


# --- mutation sensitivity ----------------------------------------------------

def test_sign_flipped_dynamics_contradict_su2_blowup(monkeypatch):
    _flip_the_flow(monkeypatch)
    traj = integrate(SU2, "forward", 2.0)
    assert traj.verdict.kind == "immortal"  # contradicts omega = 1
    rep = estimate_report(traj)
    assert rep.monotone_R_violation > 1e-3  # R visibly decreases
    # only the derivative is flipped; R is still the checkpoint's
    expected = [ricci_operator(cp.mu, check=False).scalar for cp in traj.checkpoints]
    np.testing.assert_allclose(traj.scalar_R, expected, rtol=1e-13, atol=0)


def test_c5s_mutant_is_the_sign_flipped_flow(monkeypatch):
    # The flow is autonomous, so C5's mutant, su(2) run backward to -2 and
    # read with t and its derivatives negated, is the flow with its RHS
    # negated run forward to 2, bit for bit.  Its dR/dt is -2 tr Ric^2, so
    # the evolution error reads 2.
    back = AcceptanceLab().timed_run("su2_round", "backward", 2.0)[0]
    mutant = replace(back, direction="forward", t=-back.t, rhs=[-dy for dy in back.rhs])
    _flip_the_flow(monkeypatch)
    run = integrate(SU2, "forward", 2.0)
    assert run.n_samples == 23
    assert np.array_equal(run.t, mutant.t) and np.array_equal(run.scalar_R, mutant.scalar_R)
    assert all(np.array_equal(a, b) for a, b in zip(run.rhs, mutant.rhs, strict=True))
    assert estimate_report(run) == estimate_report(mutant)
    assert estimate_report(mutant).monotone_R_violation > 1e-3
    assert estimate_report(mutant).scalar_evolution_max_relerr == pytest.approx(2.0, rel=1e-15)
    assert run.verdict.kind == mutant.verdict.kind == "immortal"


@pytest.mark.parametrize("k", [-10, 10])
def test_mutant_diagnostics_are_bit_identical_under_power_of_2_rescaling(k):
    # Each drop of R is read relative to the larger |R| of its pair, and the
    # error of dR/dt relative to 2 tr Ric^2, so the sign-flipped mutant of
    # acceptance criterion C5 reads the same numbers at every scale.  As a
    # drop relative to 1 + |R| its violation read 5.2e-8, 0.022 and 0.038 at
    # k = -10, 0 and 10: at k = -10 it would pass C5's 1e-3 as monotone.
    # The mutant is read as C5 reads it: the true flow run backward, with t
    # and its derivatives negated.
    def diagnostics(c):
        back = integrate(scale_bracket(SU2, c), "backward", 2.0 / c**2)
        rep = estimate_report(replace(back, direction="forward", t=-back.t, rhs=[-dy for dy in back.rhs]))
        return rep.monotone_R_violation, rep.scalar_evolution_max_relerr

    ref = diagnostics(1.0)
    assert ref[0] > 1e-3
    assert diagnostics(2.0**k) == ref


# --- work per step ------------------------------------------------------------

def _count_ricci_and_rhs(monkeypatch, mu, direction):
    calls = {"_ricci_from_tensor": 0, "_default_rhs_tensor": 0}
    for module, fn in ((curvature, "_ricci_from_tensor"), (flow, "_default_rhs_tensor")):
        def counted(*args, _fn=getattr(module, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, fn, counted)
    integrate(mu, direction, 2.0)
    return calls["_ricci_from_tensor"], calls["_default_rhs_tensor"]


# RHS evaluations of each run: 6 per attempted step plus the monitor's.
RHS_CALLS = {("su2_round", "forward"): 626, ("sphere2_su2", "backward"): 409}


@pytest.mark.parametrize("name, direction", list(RHS_CALLS))
def test_tabulated_rhs_makes_no_ricci_assembly(monkeypatch, name, direction):
    # On the flow's stacked table one product gives the derivative and Ric
    # together, so no separate assembly runs.
    calls = _count_ricci_and_rhs(monkeypatch, get_entry(name).bracket, direction)
    assert calls == (0, RHS_CALLS[name, direction])


# Supports with no residual row (heisenberg3, su2_round, a two-step
# nilpotent one), two h3 rows (sphere2_su2) and the three Jacobi rows of the
# whole half at d = 3 (a Milnor draw).
MONITOR_CASES = pytest.mark.parametrize(
    "mu, rows",
    [(HEIS, 0), (SU2, 0), (SPHERE, 2), (random_two_step_nilpotent(9, np.random.default_rng(0)), 0)]
    + [(transform_bracket(SU2, SU2_DRAWS[0]), 3)],
    ids=["heisenberg3", "su2_round", "sphere2_su2", "nilpotent9", "milnor-0"],
)


@MONITOR_CASES
def test_table_path_monitor_rebuilds_no_tensor(monkeypatch, mu, rows):
    # The drift check reads the residual forms off the state: no tensor is
    # rebuilt and the flat check runs once, on the initial bracket's
    # admissibility, whether no row survives (heisenberg3, nilpotent), two
    # h3 rows do (sphere2_su2) or the three Jacobi rows of the whole half at
    # d = 3 (a Milnor draw).
    calls = {"_to_tensor": 0, "_residuals": 0}
    for module, fn in ((flow, "_to_tensor"), (algebra, "_residuals")):
        def counted(*args, _fn=getattr(module, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, fn, counted)
    traj = integrate(mu, "forward", 1.0)
    assert traj.n_samples > 10
    assert calls == {"_to_tensor": 0, "_residuals": 1}
    assert traj.residual_rows == rows


@MONITOR_CASES
def test_the_drift_pass_runs_only_where_a_residual_row_survives(monkeypatch, mu, rows):
    # Where no residual row survives on the support, every residual is
    # exactly 0 on V_S: the monitor reads neither the forms nor the relative
    # residuals and writes 0.0.  Elsewhere it reads both once per sample.
    calls = {"residuals": 0, "_relative_residuals": 0}
    residuals, relative = curvature._ResidualForms.residuals, flow._relative_residuals

    def counted_residuals(self, u):
        calls["residuals"] += 1
        return residuals(self, u)

    def counted_relative(*args):
        calls["_relative_residuals"] += 1
        return relative(*args)

    monkeypatch.setattr(curvature._ResidualForms, "residuals", counted_residuals)
    monkeypatch.setattr(flow, "_relative_residuals", counted_relative)
    traj = integrate(mu, "forward", 1.0)
    assert traj.residual_rows == rows
    per_sample = traj.n_samples if rows else 0
    assert calls == {"residuals": per_sample, "_relative_residuals": per_sample}
    if not rows:
        zeros = np.zeros(traj.n_samples)
        for series in (traj.jacobi_residual, traj.h1_residual, traj.h3_residual):
            assert np.array_equal(series, zeros)


@pytest.mark.parametrize("mu", [SU2, random_two_step_nilpotent(9, np.random.default_rng(0))], ids=["dense", "sparse"])
def test_each_run_owns_its_rhs_scratch(monkeypatch, mu):
    # The table is cached and shared by every run on its support, so the
    # buffer its dense product is written into belongs to the run: each call
    # of a run is handed the same buffer, two runs on one support two
    # buffers, and neither is the table's.  A sparse table needs none.
    handed, rhs = [], flow._default_rhs_tensor

    def recorded(y, table, scratch):
        handed.append(scratch)
        return rhs(y, table, scratch)

    monkeypatch.setattr(flow, "_default_rhs_tensor", recorded)
    runs = []
    for _ in range(2):
        integrate(mu, "forward", 0.5)
        runs.append(handed[:])
        handed.clear()
    table = flow._flow_table(mu)
    if table.stack is None:
        assert all(scratch is None for run in runs for scratch in run)
        return
    first, second = (run[0] for run in runs)
    assert all(scratch is first for scratch in runs[0]) and all(scratch is second for scratch in runs[1])
    assert first[0] is not second[0] and not np.shares_memory(first[0], second[0])
    assert not any(np.shares_memory(scratch[0], table.stack) for scratch in (first, second))


@pytest.mark.parametrize("n", [9, 13])
def test_nilpotent_verdicts_do_not_depend_on_the_dense_or_sparse_rule(monkeypatch, n):
    # The two-step nilpotent tables at n = 9 and 13 are applied through their
    # nonzero coefficients.  With the crossover raised to 2^17 the same
    # tables are applied as dense products, which sum the same exact
    # coefficients in another order: the verdicts, the sample counts and
    # the singular times agree.
    mus = [random_two_step_nilpotent(n, np.random.default_rng(seed)) for seed in range(3)]

    def runs():
        return [integrate(mu, direction, 10.0) for mu in mus for direction in ("forward", "backward")]

    assert flow._flow_table(mus[0]).stack is None
    sparse = runs()
    try:
        curvature._rhs_table.cache_clear()
        monkeypatch.setattr(curvature, "DENSE_TABLE_MAX_ENTRIES", 2**17)
        assert flow._flow_table(mus[0]).stack is not None
        dense = runs()
    finally:
        curvature._rhs_table.cache_clear()
    assert [traj.verdict.kind for traj in sparse] == ["immortal", "blowup"] * 3
    for got, ref in zip(sparse, dense):
        assert (got.verdict.kind, got.n_samples) == (ref.verdict.kind, ref.n_samples)
        for x, y in [(got.verdict.omega_est, ref.verdict.omega_est), (got.verdict.far_bound, ref.verdict.far_bound)]:
            assert (x is None) == (y is None)
            assert x is None or abs(x - y) <= 1e-12 * abs(y)


def test_a_nilpotent_run_at_n13_stays_on_its_support():
    # Nothing builds a dense (m, d^3) basis of the whole i < j half (17.8 MB
    # at d = 13): the state, the checkpoints and the dense output of a
    # two-step nilpotent bracket live on its support, 30 of the m = 1014
    # half entries at n = 13, and the tensor is rebuilt by index.
    d = 13
    mu = random_two_step_nilpotent(d, np.random.default_rng(0))
    dense_basis_bytes = 8 * (d * d * (d - 1) // 2) * d**3
    tracemalloc.start()
    try:
        traj = integrate(mu, "backward", 2.0, IntegratorOptions(collect_dense=True))
        np.testing.assert_allclose(traj.dense(traj.t[-1]), traj.checkpoints[-1].mu.c.ravel(), rtol=1e-9, atol=1e-12)
        estimate_report(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.verdict.kind == "blowup"
    assert traj.dense._table.upper.shape == traj.dense._table.mirror.shape == (30,)
    assert traj.checkpoints._states[-1].shape == (30,)
    assert peak < dense_basis_bytes / 2


def _dense_nilpotent(n, seed):
    # a two-step nilpotent bracket moved by a dense g: every entry of the half is live
    rng = np.random.default_rng(seed)
    return transform_bracket(random_two_step_nilpotent(n, rng), np.eye(n) + 0.3 * rng.standard_normal((n, n)))


@pytest.mark.parametrize("n", [6, 7])
def test_dense_moved_brackets_make_no_ricci_assembly(monkeypatch, n):
    # Every support has a table: the whole half at n = 6 (m' = 90, 340k
    # dense entries) and n = 7 (m' = 147, 1.2M), applied through its nonzero
    # coefficients, so no Ricci assembly runs here either, in either
    # direction.
    mu = _dense_nilpotent(n, 0)
    table = flow._flow_table(mu)
    assert table.upper.size == n * n * (n - 1) // 2 and table.stack is None
    ricci, rhs = np.sum([_count_ricci_and_rhs(monkeypatch, mu, d) for d in ("forward", "backward")], axis=0)
    assert ricci == 0 and rhs > 1000


@pytest.mark.parametrize("horizon", [5e-324, 1e-320])
def test_a_subnormal_horizon_runs_with_no_warning(horizon):
    # The initial-step heuristic divides by a change that underflows to a
    # subnormal here; the quotient overflows inside its errstate block.
    mu = get_entry("su2_round").bracket
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = [integrate(mu, direction, horizon) for direction in ("forward", "backward")]
        runs.append(metric_flow_integrate(mu, np.eye(3), "forward", horizon))
    for traj in runs:
        assert traj.n_samples == 2
        assert traj.verdict.kind == "immortal"


def _dot_guarded_runs():
    su2 = get_entry("su2_round").bracket
    return [
        integrate(su2, "forward", 2.0),  # a dense table
        integrate(get_entry("sphere2_su2").bracket, "forward", 0.4),  # h3 rows checked each sample
        integrate(random_two_step_nilpotent(13, np.random.default_rng(0)), "backward", 10.0),  # a sparse table
        metric_flow_integrate(su2, np.eye(3), "forward", 2.0),
        metric_flow.equivalence_check(get_entry("heisenberg3").bracket, 2.0),  # reads both dense outputs
    ]


def test_no_run_path_calls_numpy_dot(monkeypatch):
    # The per-step products are ndarray methods, which skip the module-level
    # function's dispatch layer; a call of numpy.dot on any run path raises.
    warm = _dot_guarded_runs()
    assert warm[1].residual_rows > 0 and flow._flow_table(warm[2].initial).stack is None

    def refused(*args, **kwargs):
        raise AssertionError("numpy.dot called on a run path")

    monkeypatch.setattr(np, "dot", refused)
    for before, after in zip(warm, _dot_guarded_runs()):
        if isinstance(before, float):
            assert after == before
        else:
            np.testing.assert_array_equal(after.t, before.t)
            np.testing.assert_array_equal(after.scalar_R, before.scalar_R)
