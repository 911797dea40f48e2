import functools
import warnings
from collections.abc import Sequence
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bracketflow import (
    IntegratorOptions,
    LieBracket,
    NonSPDError,
    curvature,
    equivalence_check,
    integrate,
    metric_flow,
    metric_flow_integrate,
    metric_ricci,
    random_two_step_nilpotent,
    ricci_operator,
    scale_bracket,
    transform_bracket,
)
from bracketflow.catalog import catalog_entries, cover_dichotomy_check, get_entry
from bracketflow.stepper import MIN_FACTOR

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
    # metric_ricci factors P by Cholesky; the bracket pushed by the symmetric
    # square root S of P (S^T S = S^2 = P) has the same curvature
    rng = np.random.default_rng(31)
    w = rng.standard_normal((3, 3))
    p = w @ w.T + 3.0 * np.eye(3)
    vals, vecs = np.linalg.eigh(p)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    op_c, sc_chol = metric_ricci(HEIS, p)
    rd = ricci_operator(transform_bracket(HEIS, root), check=False)
    assert sc_chol == pytest.approx(rd.scalar, rel=1e-12)
    assert np.allclose(np.sort(np.linalg.eigvals(op_c).real), np.linalg.eigvalsh(rd.ric), atol=1e-10)


def test_non_spd_rejected():
    with pytest.raises(NonSPDError):
        metric_ricci(HEIS, np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(NonSPDError):
        metric_flow_integrate(HEIS, np.diag([0.0, 1.0, 1.0]), "forward", 1.0)


@pytest.mark.parametrize("shape", [(4, 4), (3, 4), (1, 3, 3)], ids=["4x4", "3x4", "1x3x3"])
def test_metric_of_the_wrong_shape_is_refused_before_any_step(shape, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("stepped a metric of the wrong shape")

    monkeypatch.setattr(metric_flow, "RK45", fail)
    p = np.ones(shape) + np.eye(*shape[-2:])
    with pytest.raises(ValueError, match="metric matrix must be 3 x 3"):
        metric_ricci(HEIS, p)
    with pytest.raises(ValueError, match="metric matrix must be 3 x 3"):
        metric_flow_integrate(HEIS, p, "forward", 1.0)


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


@pytest.mark.parametrize("horizon", [0.0, -1.0, float("nan"), float("inf"), True])
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


def test_a_grid_metric_off_the_cone_is_a_non_spd_error(monkeypatch):
    # the grid's metrics are factored as the flow's are: one off the cone is
    # the package's typed error, not a linear-algebra one
    metric_run = metric_flow.metric_flow_integrate

    def off_the_cone(*args):
        traj = metric_run(*args)

        def dense(t):
            p = traj.dense(t).copy()
            p[0, -1] = -p[0, -1]  # P[0, 0] at the last grid time
            return p

        return replace(traj, dense=dense)

    monkeypatch.setattr(metric_flow, "metric_flow_integrate", off_the_cone)
    with pytest.raises(NonSPDError, match="dpotrf info = 1"):
        equivalence_check(HEIS, 1.0)


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


# C8's six gaps and every entry's cover dichotomy
SCALE_CASES = [("gap", name) for name in C8_HORIZONS] + [("dichotomy", e.name) for e in catalog_entries()]


@functools.cache
def _reading(kind, name, c=1.0):
    # C8's gap of c mu over horizon / c^2, or whether the cover dichotomy
    # holds for the entry rescaled by c: bracket c mu, r0 c^2, horizons / c^2
    entry = get_entry(name)
    mu = scale_bracket(entry.bracket, c)
    if kind == "gap":
        return equivalence_check(mu, C8_HORIZONS[name] / c**2)
    traj = integrate(mu, "forward", entry.default_horizon["forward"] / c**2)
    return cover_dichotomy_check(replace(entry, bracket=mu, r0=entry.r0 * c**2), traj).ok


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(SCALE_CASES), k=st.integers(-20, 23))
@example(case=("gap", "heisenberg3"), k=-20)
@example(case=("gap", "nilpotent4"), k=23)
@example(case=("dichotomy", "su2_round"), k=-20)
def test_gaps_and_dichotomy_verdicts_are_bit_identical_under_power_of_2_rescaling(case, k):
    # Both flows step bit for bit alike under mu -> 2^k mu, t -> t / 4^k, and
    # the gap and the dichotomy read their slacks relative to the run's own
    # scale: sqrt(n) |Ric| at each grid time, max |R| and the extinction bound.
    assert _reading(*case, 2.0**k) == _reading(*case)


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


@pytest.mark.parametrize("n", [pytest.param(n, id=f"{n}-cholesky") for n in (3, 4, 6)])
def test_factor_comes_with_its_inverse(n):
    p = _spd(n, 40 + n)
    ell, ell_inv = metric_flow._factor(p)
    assert np.max(np.abs(ell @ ell_inv - np.eye(n))) <= 1e-14
    assert np.max(np.abs(ell.T @ ell - p)) <= 1e-14 * np.max(np.abs(p))
    assert np.all(np.tril(ell, -1) == 0.0)


def test_indefinite_metric_raises_through_the_factorization_status():
    p = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(NonSPDError, match="dpotrf info = 2"):
        metric_flow._factor(p)


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


def test_metric_monitor_reads_the_last_stages_ricci(monkeypatch):
    # su(2) to its singularity rejects attempts whose stages leave the cone.
    # The monitor makes no assembly but the initial sample's, so the run makes
    # one per RHS evaluation and one more; each sample's Ric is still the one
    # assembled at its own state, never a rejected attempt's stage's.
    pushed_ric, drive = metric_flow._pushed_ric, metric_flow._drive
    calls, solvers, runs = [0], [], []

    def counted(*args):
        calls[0] += 1
        return pushed_ric(*args)

    def recorded(solver, *args):
        solvers.append(solver)
        runs.append(drive(solver, *args))
        return runs[-1]

    monkeypatch.setattr(metric_flow, "_pushed_ric", counted)
    monkeypatch.setattr(metric_flow, "_drive", recorded)
    traj = metric_flow_integrate(SU2, np.eye(3), "forward", C8_HORIZONS["su2_round"])
    (solver,), (run,) = solvers, runs
    assert traj.verdict.kind == "blowup"
    assert (solver.nfev - 2) // solver.n_stages > traj.n_samples - 1  # some attempt was rejected
    assert calls[0] == solver.nfev + 1
    for y, ric in zip(run.states, run.ric, strict=True):
        assert np.array_equal(ric, pushed_ric(SU2, y.reshape(3, 3))[0])


# --- the support the pushed brackets reach ----------------------------------

def _block_diagonal_spd(n, seed, blocks):
    # a random SPD matrix, kept on the diagonal blocks: blocks[i] is row i's
    p = _spd(n, seed)
    return np.where(np.equal.outer(blocks, blocks), p, 0.0)


def _nilpotent(n, seed=0):
    return random_two_step_nilpotent(n, np.random.default_rng(seed))


# (label, bracket, P0, horizon, size of the run's support, terms of its
# push or None where the mode products push): C8's runs, the zero bracket's
# by the mode products, and seeded two-step nilpotent brackets at n = 5, 6
# and 9 from the identity, where the support is that of the bracket flow
# (Lambda^2 v (x) z), a block-diagonal P0 on blocks within v and z and one
# on blocks that cut across them, and three dense P0s; the P0s that cut
# across v and z at n >= 5 push by the mode products.
SUPPORT_RUNS = [
    (name, get_entry(name).bracket, np.eye(get_entry(name).bracket.dims.n), h, size, size or None)
    for (name, h), size in zip(C8_HORIZONS.items(), [0, 1, 3, 2, 1, 1], strict=True)
]
SUPPORT_RUNS += [
    (f"nilpotent{n}", _nilpotent(n), np.eye(n), 10.0, size, terms) for n, size, terms in [(5, 6, 21), (6, 9, 42), (9, 18, 147)]
]
SUPPORT_RUNS += [
    ("nilpotent6-blocks-in-v-and-z", _nilpotent(6), _block_diagonal_spd(6, 5, [0, 0, 1, 2, 2, 2]), 10.0, 9, 42),
    ("nilpotent6-blocks-across", _nilpotent(6), _block_diagonal_spd(6, 5, [0, 0, 1, 1, 2, 2]), 10.0, 90, None),
    ("nilpotent5-dense", _nilpotent(5), _spd(5, 7), 10.0, 50, None),
    ("nilpotent7-dense", _nilpotent(7), _spd(7, 7), 10.0, 147, None),
    ("heisenberg3-dense", HEIS, _spd(3, 8), 10.0, 9, 12),
]
SUPPORT_IDS = [run[0] for run in SUPPORT_RUNS]


@functools.cache
def _recorded_run(label):
    # The run of a SUPPORT_RUNS case, with the (P, kernel) of every
    # `_pushed_ric` call it made, stages and samples alike
    _, mu, p0, horizon, *_ = SUPPORT_RUNS[SUPPORT_IDS.index(label)]
    pushed_ric, calls = metric_flow._pushed_ric, []

    def recorded(mu0, p, kernel=None):
        calls.append((p.copy(), kernel))
        return pushed_ric(mu0, p, kernel)

    metric_flow._pushed_ric = recorded
    try:
        traj = metric_flow_integrate(mu, p0, "forward", horizon)
    finally:
        metric_flow._pushed_ric = pushed_ric
    return traj, calls


@pytest.mark.parametrize("label", SUPPORT_IDS)
def test_every_pushed_bracket_of_a_run_is_exactly_zero_off_its_support(label):
    # At every metric a run factors, the mode products of `_transform_tensor`
    # are exactly 0 on the half off S_nu, and the run's kernel pushes onto
    # S_nu what they give there; its push is the term list exactly where
    # that has at most d^3 terms
    _, mu, p0, _, size, terms = SUPPORT_RUNS[SUPPORT_IDS.index(label)]
    support = metric_flow._pushed_support(mu, p0)
    assert len(support) == size
    off = np.delete(metric_flow._half_indices(mu.dims.d)[0], list(support))
    traj, calls = _recorded_run(label)
    kernel = calls[0][1]
    # every call reads the one kernel the run holds, that of the run's support
    assert len(calls) > traj.n_samples and all(k is kernel for _, k in calls)
    assert kernel.table.support == support
    assert (None if kernel.terms is None else kernel.terms[0].size) == terms
    checked = 0
    for p, _ in calls:
        try:
            ell, ell_inv = metric_flow._factor(p)
        except NonSPDError:
            continue
        nu = metric_flow._transform_tensor(mu.c, ell, ell_inv).ravel()
        if np.isfinite(nu).all():
            on = nu[kernel.table.upper]
            assert not nu[off].any()
            u = kernel.push(ell, ell_inv)
            assert u.dtype == float
            err = np.max(np.abs(u - on), initial=0.0)
            assert err <= 1e-14 * np.max(np.abs(on), initial=0.0)
            checked += 1
    assert checked >= 6 * (traj.n_samples - 1)


@pytest.mark.parametrize("label", SUPPORT_IDS)
def test_every_metric_the_rhs_is_handed_is_exactly_symmetric(label):
    # dpotrf reads P's upper triangle only, so the RHS factors what it is
    # handed as it is; every stage and sample of a run is symmetric bit for
    # bit, NaNs included (su2_round's stages past its singularity)
    traj, calls = _recorded_run(label)
    assert len(calls) > 6 * (traj.n_samples - 1)
    assert all(np.array_equal(p, p.T, equal_nan=True) for p, _ in calls)


def test_a_run_at_n13_from_the_identity_makes_no_gemm_call(monkeypatch):
    # The run holds the table of its support, 30 of the 1014 half entries,
    # and reads every Ric through it, whatever the support's size
    mu, p0 = _nilpotent(13), np.eye(13)
    assert len(metric_flow._pushed_support(mu, p0)) == 30
    gemm, calls = curvature._ricci_gemm, []

    def counted(*args):
        calls.append(args)
        return gemm(*args)

    for module in (curvature, metric_flow):
        monkeypatch.setattr(module, "_ricci_gemm", counted)
    traj = metric_flow_integrate(mu, p0, "backward", 10.0)
    assert traj.verdict.kind == "blowup" and traj.n_samples > 10
    assert calls == []


def _whole_half_pushed_ric(mu0, p, table=None):
    # Ric of the pushed bracket read through the whole half's table, whatever the run's table
    ell, ell_inv = metric_flow._factor(metric_flow._sym(p))
    d = mu0.dims.d
    whole = metric_flow._rhs_table(d, 0, tuple(range(d * d * (d - 1) // 2)))
    return curvature._ricci_from_tensor(metric_flow._transform_tensor(mu0.c, ell, ell_inv), whole), ell


@pytest.mark.parametrize("n", [5, 6], ids=["n5", "n6"])
def test_a_run_from_a_dense_metric_reads_the_whole_half_bit_for_bit(monkeypatch, n):
    mu, p0 = _nilpotent(n), _spd(n, 3)
    assert metric_flow._pushed_support(mu, p0) == tuple(range(n * n * (n - 1) // 2))
    runs = [metric_flow_integrate(mu, p0, "forward", 10.0)]
    monkeypatch.setattr(metric_flow, "_pushed_ric", _whole_half_pushed_ric)
    runs.append(metric_flow_integrate(mu, p0, "forward", 10.0))
    new, ref = runs
    assert new.verdict == ref.verdict
    for series in ("t", "scalar_R", "ric_eigs"):
        assert np.array_equal(getattr(new, series), getattr(ref, series))


def test_a_structured_support_reads_ricci_as_the_whole_half_does():
    mu, p = _nilpotent(6), _block_diagonal_spd(6, 5, [0, 0, 1, 2, 2, 2])
    ric, ell = metric_flow._pushed_ric(mu, p)
    ref, ref_ell = _whole_half_pushed_ric(mu, p)
    assert np.array_equal(ell, ref_ell)
    assert np.array_equal(ric, ric.T)
    assert np.max(np.abs(ric - ref)) <= 1e-14 * np.max(np.abs(ref))


def _stage_rhs(monkeypatch, mu, p0):
    # the RHS the metric flow hands its stepper, from a short run
    funs = []

    class Recording(metric_flow.RK45):
        def __init__(self, fun, *args, **kwargs):
            funs.append(fun)
            super().__init__(fun, *args, **kwargs)

    monkeypatch.setattr(metric_flow, "RK45", Recording)
    metric_flow_integrate(mu, p0, "forward", 0.01)
    return funs[0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "overflow"])
@pytest.mark.parametrize("dense", [False, True], ids=["structured-support", "whole-half"])
def test_a_non_finite_stage_is_rejected_with_no_warning(monkeypatch, bad, dense):
    mu = _nilpotent(6)
    p0 = _spd(6, 2) if dense else np.eye(6)
    assert (len(metric_flow._pushed_support(mu, p0)) == 90) == dense
    fun = _stage_rhs(monkeypatch, mu, p0)
    y = p0.ravel().copy()
    y[1] = y[6] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(fun(0.0, y)).all()
    calls = [0]

    def poisoned(t, y):
        # the third stage of the first attempt holds a non-finite metric entry
        calls[0] += 1
        if calls[0] == 5:
            y = y.copy()
            y[1] = y[6] = bad
        return fun(t, y)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver = metric_flow.RK45(poisoned, 0.0, p0.ravel().copy(), 1.0, rtol=1e-6, atol=1e-9)
        h_first = solver.h_abs
        assert solver.step() is None
    assert solver.nfev == 2 + 2 * solver.n_stages  # one rejected attempt, one accepted
    assert solver.t - solver.t_old == MIN_FACTOR * h_first
    assert np.isfinite(solver.y).all()
