"""The in-package Dormand-Prince 5(4) stepper against scipy's RK45, used here as an oracle only.

The stepper must take scipy's steps up to rounding (same tableau, initial
step, step floor and factors), so the flows' step sequences do not move.
"""

import numpy as np
import pytest
from scipy.integrate import RK45 as ScipyRK45

from bracketflow import LieBracket, bracket_flow_rhs, get_entry, random_bracket
from bracketflow.curvature import _flow_table, _ricci_table
from bracketflow.flow import _default_rhs_tensor, _to_state, _to_tensor
from bracketflow.stepper import MIN_FACTOR, TOO_SMALL_STEP, DormandPrince54

SU2 = get_entry("su2_round").bracket
# A damped oscillator whose step control rejects steps at moderate tolerances.
OSC = np.array([[0.0, 1.0], [-400.0, -0.5]])


def _linear(_t, y):
    return OSC @ y


def _forced(t, y):
    # non-autonomous, so each stage's time C[s] h counts
    return OSC @ y + np.array([0.0, 50.0 * np.sin(30.0 * t)])


def _run(cls, fun, y0, t_bound, **kw):
    """(accepted, rejected, t, y) of stepping to t_bound."""
    solver = cls(fun, 0.0, y0, t_bound, **kw)
    nfev0, accepted = solver.nfev, 0
    while solver.status == "running":
        solver.step()
        accepted += 1
    return accepted, (solver.nfev - nfev0) // solver.n_stages - accepted, solver.t, solver.y


@pytest.mark.parametrize("fun", [_linear, _forced])
@pytest.mark.parametrize("rtol", [1e-3, 1e-6, 1e-10])
def test_same_steps_as_scipy_on_a_linear_system(fun, rtol):
    ours = _run(DormandPrince54, fun, np.array([1.0, 0.0]), 3.0, rtol=rtol, atol=1e-12)
    ref = _run(ScipyRK45, fun, np.array([1.0, 0.0]), 3.0, rtol=rtol, atol=1e-12)
    assert ours[:3] == ref[:3]
    np.testing.assert_allclose(ours[3], ref[3], rtol=1e-9)
    if rtol == 1e-6:
        assert ours[1] > 0  # rejections are live


def test_same_steps_as_scipy_on_su2_forward_in_the_half_state():
    # scipy steps the full tensor; ours the flow's state, the i < j entries
    # on SU(2)'s support (3 of the 9 in the half), each counted twice
    table = _flow_table(SU2)
    assert len(table.support) == 3

    def full(_t, y):
        return bracket_flow_rhs(LieBracket(SU2.dims, y.reshape(3, 3, 3))).c.ravel()

    def half(_t, u):
        return _default_rhs_tensor(u, 3, 0, table)[0]

    t_bound = 1.0 - 1e-8  # omega = 1
    ours = _run(DormandPrince54, half, _to_state(SU2.c, table), t_bound, rtol=1e-10, atol=1e-12, rms_weight=2 / 27)
    ref = _run(ScipyRK45, full, SU2.c.ravel().copy(), t_bound, rtol=1e-10, atol=1e-12)
    assert ours[:3] == ref[:3]
    assert ours[0] > 400
    np.testing.assert_allclose(_to_tensor(ours[3], 3, table).ravel(), ref[3], rtol=1e-6, atol=0)


def test_dense_output_equals_scipys_on_the_same_step():
    y0 = np.array([1.0, -3.0])
    ours = DormandPrince54(_linear, 0.0, y0, 1.0, rtol=1e-6, atol=1e-9)
    ref = ScipyRK45(_linear, 0.0, y0, 1.0, rtol=1e-6, atol=1e-9)
    ours.h_abs = ref.h_abs  # the same step from the same state, not a step size one ulp apart
    ours.step()
    ref.step()
    assert (ours.t_old, ours.t) == (ref.t_old, ref.t)
    np.testing.assert_allclose(ours.y, ref.y, rtol=1e-14)
    a, b = ours.dense_output(), ref.dense_output()
    times = np.linspace(ours.t_old, ours.t, 7)
    scale = np.max(np.abs(b(times)))
    assert np.max(np.abs(a(times) - b(times))) <= 1e-14 * scale
    for t in times:
        assert np.max(np.abs(a(t) - b(t))) <= 1e-14 * scale
    assert a(times).shape == (2, 7) and a(times[3]).shape == (2,)
    assert np.array_equal(a(ours.t_old), ours.y_old)


def test_nan_stage_is_rejected_and_retried_at_min_factor():
    calls = {"n": 0}

    def poisoned(_t, y):
        # the third stage of the first attempt leaves the RHS's domain
        calls["n"] += 1
        return np.full_like(y, np.nan) if calls["n"] == 5 else -y

    solver = DormandPrince54(poisoned, 0.0, np.array([1.0]), 10.0, rtol=1e-6, atol=1e-9)
    assert solver.nfev == 2  # the derivative at t0 and the initial-step probe
    h_first = solver.h_abs
    assert solver.step() is None
    assert solver.status == "running"
    assert solver.nfev == 2 + 2 * solver.n_stages  # one rejected attempt, one accepted
    assert solver.t - solver.t_old == MIN_FACTOR * h_first
    assert solver.h_abs == MIN_FACTOR * h_first  # a step right after a rejection does not grow
    solver.step()
    assert solver.nfev == 2 + 3 * solver.n_stages


@pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
def test_rtol_below_rounding_is_raised_like_scipys():
    args = (_linear, 0.0, np.array([1.0, 0.0]), 1.0)
    assert DormandPrince54(*args, rtol=1e-16).rtol == ScipyRK45(*args, rtol=1e-16).rtol == 100 * np.finfo(float).eps


def test_nfev_counts_two_in_the_constructor_and_six_per_attempt():
    solver = DormandPrince54(_linear, 0.0, np.array([1.0, 0.0]), 3.0, rtol=1e-6, atol=1e-12)
    ref = ScipyRK45(_linear, 0.0, np.array([1.0, 0.0]), 3.0, rtol=1e-6, atol=1e-12)
    assert solver.nfev == ref.nfev == 2
    while solver.status == "running":
        solver.step()
        ref.step()
        assert solver.nfev == ref.nfev
        assert (solver.nfev - 2) % solver.n_stages == 0


def test_step_floor_is_scipys():
    # A step below the floor of 10 ulps of t is raised to it ...
    args = (_linear, 1.0, np.array([1.0, 0.0]), 3.0)
    ours, ref = DormandPrince54(*args), ScipyRK45(*args)
    ours.h_abs = ref.h_abs = 1e-15
    assert ours.step() is ref.step() is None
    assert ours.t == ref.t == 1.0 + 10 * np.spacing(1.0)

    # ... and a step whose attempts keep failing shrinks below it and fails.
    def nan_past_t0(t, y):
        return _linear(t, y) if t == 1.0 else np.full_like(y, np.nan)

    args = (nan_past_t0, 1.0, np.array([1.0, 0.0]), 3.0)
    ours, ref = DormandPrince54(*args), ScipyRK45(*args)
    assert ours.step() == ref.step() == TOO_SMALL_STEP
    assert ours.status == ref.status == "failed"
    assert ours.t == ref.t == 1.0
    with pytest.raises(RuntimeError):
        ours.step()


@pytest.mark.parametrize("q, n", [(0, 3), (1, 2), (0, 4), (1, 3)])
def test_half_state_error_norm_equals_the_full_tensor_rms(q, n):
    d = q + n
    mu = random_bracket(q, n, np.random.default_rng(7 + d))
    table = _ricci_table(d, q)  # the whole half's table
    u = _to_state(mu.c, table)
    assert u.size == d * d * (d - 1) // 2
    for w in (u, 1e-3 * u - 2.0):
        # the full vector of the antisymmetric tensor: w, its mirror -w, zeros
        full_w = _to_tensor(w, d, table).ravel()
        half = DormandPrince54(lambda _t, y: y, 0.0, w, 1.0, rms_weight=2 / d**3)
        assert half._rms(w) == pytest.approx(np.sqrt(np.mean(full_w**2)), rel=1e-15)

    def half(_t, y):
        return _default_rhs_tensor(y, d, q, table)[0]

    def full(_t, y):
        # the same derivative on the full tensor, so every stage is the exact mirror of the half's
        return _to_tensor(half(_t, _to_state(y.reshape(d, d, d), table)), d, table).ravel()

    # The step sizes read the error norm, so they are the full tensor's too.
    # The error estimate h E.K cancels about 8 digits at rtol 1e-8, so the
    # ulps by which the two layouts' products differ show at about 1e-10 in
    # h; a wrong weight would show at (d^3 / 2m)^(1/10) - 1, several percent.
    ours = DormandPrince54(half, 0.0, u, 1.0, rtol=1e-8, atol=1e-12, rms_weight=2 / d**3)
    ref = DormandPrince54(full, 0.0, mu.c.ravel().copy(), 1.0, rtol=1e-8, atol=1e-12)
    assert ours.h_abs == pytest.approx(ref.h_abs, rel=1e-14)
    for _ in range(5):
        ours.step()
        ref.step()
        assert ours.h_abs == pytest.approx(ref.h_abs, rel=1e-8)
    np.testing.assert_allclose(_to_tensor(ours.y, d, table).ravel(), ref.y, rtol=1e-9, atol=1e-15)

