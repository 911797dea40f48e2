import numpy as np
import pytest

from bracketflow import (
    LieBracket,
    NotInVarietyError,
    bracket_norm,
    killing_form_p,
    koszul_ricci_oracle,
    mean_curvature,
    moment_part,
    random_bracket,
    random_two_step_nilpotent,
    ricci_operator,
    scale_bracket,
    transform_bracket,
)
from bracketflow.catalog import catalog_entries, get_entry
from bracketflow.algebra import PLAN_MAX_D, _mirror_basis, _pi_tensor, _transform_tensor, _triple_plan
from bracketflow.curvature import _rhs_table, _ricci_from_tensor, _ricci_plan
from bracketflow.flow import _default_rhs_tensor, _to_state, _to_tensor

from oracles import (
    killing_p_loops,
    mean_curvature_loops,
    moment_part_loops,
    pi_action_loops,
    pi_table_folded,
    ricci_assembled_loops,
    ricci_table_polarized,
)

HEIS = get_entry("heisenberg3").bracket
SU2 = get_entry("su2_round").bracket
HYP = get_entry("hyperbolic3").bracket


# --- constituents -----------------------------------------------------------

def test_mean_curvature_unimodular_zero():
    assert np.allclose(mean_curvature(HEIS), 0.0, atol=0.0)
    assert np.allclose(mean_curvature(SU2), 0.0, atol=0.0)
    assert np.allclose(mean_curvature(LieBracket.zero(0, 3)), 0.0, atol=0.0)


def test_mean_curvature_hyperbolic():
    assert np.allclose(mean_curvature(HYP), [0.0, 0.0, 2.0], atol=0.0)
    assert np.allclose(mean_curvature_loops(HYP.c, 0), [0.0, 0.0, 2.0], atol=1e-15)


def test_killing_form_examples():
    assert np.allclose(killing_form_p(SU2), -2.0 * np.eye(3), atol=1e-15)
    assert np.allclose(killing_form_p(HEIS), 0.0, atol=0.0)
    assert np.allclose(killing_form_p(HYP), np.diag([0.0, 0.0, 2.0]), atol=1e-15)


def test_killing_form_matches_loops_on_randoms():
    rng = np.random.default_rng(11)
    for q, n in [(0, 3), (1, 3), (0, 5)]:
        mu = random_bracket(q, n, rng)
        assert np.allclose(killing_form_p(mu), killing_p_loops(mu.c, q), atol=1e-12)


def test_moment_part_heisenberg():
    assert np.allclose(moment_part(HEIS), np.diag([-0.5, -0.5, 0.5]), atol=1e-15)


def test_moment_part_zero():
    assert np.allclose(moment_part(LieBracket.zero(1, 3)), 0.0, atol=0.0)


def test_moment_part_su2_value_fixed_by_oracle():
    m = moment_part(SU2)
    assert np.allclose(m, moment_part_loops(SU2.c, 0), atol=1e-14)
    assert np.allclose(m, -0.5 * np.eye(3), atol=1e-15)
    # cross-check: M - B/2 must be the bi-invariant Ricci operator I/2
    assert np.allclose(m - 0.5 * killing_form_p(SU2), 0.5 * np.eye(3), atol=1e-15)


def test_moment_part_matches_loops_on_randoms():
    rng = np.random.default_rng(12)
    for q, n in [(0, 4), (1, 2), (2, 3)]:
        mu = random_bracket(q, n, rng)
        assert np.allclose(moment_part(mu), moment_part_loops(mu.c, q), atol=1e-12)


# --- the operator itself ----------------------------------------------------

def test_ricci_heisenberg():
    rd = ricci_operator(HEIS)
    assert np.allclose(rd.ric, np.diag([-0.5, -0.5, 0.5]), atol=1e-15)
    assert rd.scalar == pytest.approx(-0.5, abs=1e-15)
    assert rd.ric_sq_trace == pytest.approx(0.75, abs=1e-15)


def test_ricci_su2():
    rd = ricci_operator(SU2)
    assert np.allclose(rd.ric, 0.5 * np.eye(3), atol=1e-15)
    assert rd.scalar == pytest.approx(1.5, abs=1e-15)


def test_ricci_hyperbolic_exact():
    rd = ricci_operator(HYP)
    assert np.max(np.abs(rd.ric + 2.0 * np.eye(3))) <= 1e-12
    assert rd.scalar == pytest.approx(-6.0, abs=1e-12)


def test_ricci_hyperbolic_plane():
    rd = ricci_operator(get_entry("hyperbolic_plane").bracket)
    assert np.allclose(rd.ric, -np.eye(2), atol=1e-15)


def test_ricci_sphere_with_isotropy():
    rd = ricci_operator(get_entry("sphere2_su2").bracket)
    assert np.allclose(rd.ric, np.eye(2), atol=1e-15)
    rd = ricci_operator(get_entry("sphere2_times_line").bracket)
    assert np.allclose(rd.ric, np.diag([1.0, 1.0, 0.0]), atol=1e-15)


def test_ricci_matches_assembled_loops():
    rng = np.random.default_rng(13)
    for q, n in [(0, 4), (1, 3)]:
        mu = random_bracket(q, n, rng)
        got = ricci_operator(mu, check=False).ric
        assert np.allclose(got, ricci_assembled_loops(mu.c, q), atol=1e-12)


@pytest.mark.parametrize(
    "q, n", [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (0, 6), (0, 13)]
)
def test_fused_kernel_matches_assembled_loops(q, n):
    mu = random_bracket(q, n, np.random.default_rng(100 + 10 * q + n))
    assert np.max(np.abs(mean_curvature(mu))) > 0.1  # non-unimodular: the ad H term is live
    ric = _ricci_from_tensor(mu.c, q)
    ref = ricci_assembled_loops(mu.c, q)
    assert np.max(np.abs(ric - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(ric, ric.T)
    rd = ricci_operator(mu, check=False)  # the scalars are computed where they are read
    assert np.array_equal(rd.ric, ric)
    assert rd.scalar == ric.trace()
    assert rd.ric_sq_trace == pytest.approx(np.sum(ref * ref), rel=1e-12)


# --- tabulated forms (d <= PLAN_MAX_D) --------------------------------------

# Every (q, n) with d <= PLAN_MAX_D, and two at d = 5, where the hot path
# keeps the GEMM kernels but the tables must still be right.
TABLE_SHAPES = [(q, d - q) for d in range(1, PLAN_MAX_D + 1) for q in range(d)] + [(0, 5), (2, 3)]
TABLE_RTOL = 1e-14


def _rel(got, ref):
    scale = np.max(np.abs(ref))
    return np.max(np.abs(got - ref)) / scale if scale > 0 else np.max(np.abs(got))


def _stacked(c, q):
    # s = (table @ u).reshape(2, rows, m): the Q half and the P half applied to u
    upper, table, rows, sym, basis = _rhs_table(c.shape[0], q)
    u = c.ravel()[upper]
    return (table @ u).reshape(2, rows, -1), u, sym, basis


def _tabulated_ricci(c, q):
    s, u, sym, _ = _stacked(c, q)
    return (s[0] @ u)[sym]


def _tabulated_rhs(a, c, q):
    # -pi(diag(0, a)) c for a symmetric n x n matrix a: P is folded onto its upper triangle
    s, _, _, basis = _stacked(c, q)
    return (a[np.triu_indices(len(a))] @ s[1] @ basis).reshape(c.shape)


@pytest.mark.parametrize("q, n", TABLE_SHAPES)
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e7])
def test_tables_match_the_gemm_kernels_and_the_loop_oracles(q, n, scale):
    rng = np.random.default_rng(300 + 10 * q + n)
    for _ in range(3):
        c = random_bracket(q, n, rng, scale).c
        ric = _tabulated_ricci(c, q)
        assert np.array_equal(ric, ric.T)
        assert _rel(ric, _ricci_from_tensor(c, q, tabulated=False)) <= TABLE_RTOL
        assert _rel(ric, ricci_assembled_loops(c, q)) <= TABLE_RTOL
        a = rng.standard_normal((n, n))
        a = a + a.T  # symmetric, like every Ric the table is applied to
        dc = _tabulated_rhs(a, c, q)
        abar = np.zeros((q + n,) * 2)
        abar[q:, q:] = a
        assert _rel(dc, -_pi_tensor(abar, c)) <= TABLE_RTOL
        assert _rel(dc, -pi_action_loops(a, c, q)) <= TABLE_RTOL
        if q + n <= PLAN_MAX_D:
            # the hot paths are these products: the RHS on the whole table,
            # in the half state u it reads, Ricci alone on its Q half, with
            # the same bits
            upper, basis = _mirror_basis(q + n)
            du, ric_hot = _default_rhs_tensor(c.ravel()[upper], q + n, q)
            assert np.array_equal(ric_hot, ric)
            assert np.array_equal((du @ basis).reshape(c.shape), _tabulated_rhs(ric, c, q))
            assert np.array_equal(_ricci_from_tensor(c, q), ric)


@pytest.mark.parametrize("q, n", [(q, n) for q, n in TABLE_SHAPES if q + n <= PLAN_MAX_D])
def test_stacked_table_equals_the_earlier_builders_bit_for_bit(q, n):
    # Q polarized over a <= b with the diagonal reused, P built from the
    # symmetric units: the same exact coefficients as the earlier
    # (plus - minus) / 4 form and the folded n^2-row pi table.
    d = q + n
    upper, table, rows, _, _ = _rhs_table(d, q)
    q_half, p_half = table.reshape(2, rows, upper.size, upper.size)
    assert np.array_equal(q_half, ricci_table_polarized(d, q))
    assert np.array_equal(p_half, pi_table_folded(d, q))


@pytest.mark.parametrize("q, n", [(0, 2), (0, 3), (1, 2), (0, 4), (1, 3), (2, 2)])
def test_tabulated_rhs_is_exactly_antisymmetric(q, n):
    c = random_bracket(q, n, np.random.default_rng(40 + n), 3.0).c
    du, _ = _default_rhs_tensor(_to_state(c), q + n, q)
    assert du.shape == (_mirror_basis(q + n)[0].size,)  # the half state, as the stepper holds it
    dmu = _to_tensor(du, q + n)
    assert np.array_equal(dmu, -dmu.transpose(1, 0, 2))
    assert not np.any(np.diagonal(dmu, axis1=0, axis2=1))


@pytest.mark.parametrize(
    "mu",
    [SU2, get_entry("nilpotent4").bracket, random_bracket(0, 5, np.random.default_rng(5))],
    ids=["su2_round", "nilpotent4", "random_d5_gemm_path"],
)
def test_nearly_antisymmetric_tensor_gives_the_ricci_of_its_mirror(mu):
    # The metric flow's pushed tensor L.mu is antisymmetric up to rounding only.
    d = mu.dims.d
    g = np.random.default_rng(11).standard_normal((d, d)) + 3 * np.eye(d)
    pushed = _transform_tensor(mu.c, g, np.linalg.inv(g))
    mirror = LieBracket(mu.dims, pushed).c
    assert not np.array_equal(pushed, mirror)  # the case is live
    ric = _ricci_from_tensor(pushed, 0)
    ref = _ricci_from_tensor(mirror, 0)
    assert _rel(ric, ref) <= TABLE_RTOL
    if d <= PLAN_MAX_D:  # the table reads the i < j half, which the mirror keeps
        assert np.array_equal(ric, ref)


def test_ricci_operator_is_moment_minus_half_killing_minus_sym_ad_h():
    rng = np.random.default_rng(19)
    for q, n in [(0, 4), (1, 3), (2, 3)]:
        mu = random_bracket(q, n, rng)
        ad_h = np.tensordot(mean_curvature(mu), mu.c[q:, q:, q:], axes=1)
        expected = moment_part(mu) - killing_form_p(mu) / 2 - (ad_h + ad_h.T) / 2
        rd = ricci_operator(mu, check=False)
        assert np.max(np.abs(rd.ric - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(rd.killing_p, killing_form_p(mu))
        assert np.array_equal(rd.mean_curvature, mean_curvature(mu))
        assert np.array_equal(rd.moment_part, moment_part(mu))


def test_plans_are_cached_and_read_only():
    d, q = 5, 2
    idx, w = _ricci_plan(d, q)
    assert _ricci_plan(d, q)[0] is idx and _ricci_plan(d, q)[1] is w
    assert _triple_plan(d) is _triple_plan(d)
    for plan in (idx, w, _triple_plan(d)):
        with pytest.raises(ValueError, match="read-only"):
            plan.flat[0] = 0
    # the plan gathers the entries its docstring names
    c = np.arange(float(d**3)).reshape(d, d, d)
    left, swap = c.ravel()[idx]
    n, x, j, k = d - q, 1, 0, 3
    assert left[x, j * d + k] == c[q + x, j, k]  # A1
    assert swap[x, j * d + k] == c[q + x, k, j]  # A2
    i, j = 2, 1
    assert left[x, d * d + i * n + j] == swap[x, d * d + i * n + j] == c[q + i, q + j, q + x]  # A3
    in_p = np.arange(d) >= q
    assert np.array_equal(w[0, 0, : d * d], -0.5 * np.outer(in_p, in_p).ravel())
    # the stacked table and the mirrored basis it is written in
    d, q = 3, 1
    upper, basis = _mirror_basis(d)
    t_upper, table, rows, sym, t_basis = _rhs_table(d, q)
    assert _mirror_basis(d)[1] is basis and t_upper is upper and t_basis is basis
    assert _rhs_table(d, q)[1] is table and _rhs_table(d, q)[3] is sym
    assert rows == 3  # n(n+1)/2 upper-triangle entries of Ric
    assert table.shape == (2 * rows * 9, 9) and np.array_equal(sym, [[0, 1], [1, 2]])
    for plan in (upper, basis, table, sym):
        with pytest.raises(ValueError, match="read-only"):
            plan.flat[0] = 0
    c = random_bracket(q, d - q, np.random.default_rng(3)).c
    assert np.array_equal(c.ravel()[upper] @ basis, c.ravel())


def test_ricci_data_invariants():
    rng = np.random.default_rng(14)
    for _ in range(20):
        mu = random_bracket(0, 4, rng)
        rd = ricci_operator(mu, check=False)
        assert np.max(np.abs(rd.ric - rd.ric.T)) <= 1e-12 * max(1.0, np.max(np.abs(rd.ric)))
        assert rd.scalar == pytest.approx(np.trace(rd.ric), rel=1e-14)
        assert rd.ric_sq_trace >= rd.scalar**2 / mu.dims.n - 1e-12


def test_ricci_rejects_non_member():
    c = np.array(HEIS.c)
    c[1, 2, 1] += 0.1
    with pytest.raises(NotInVarietyError, match="jacobi_residual"):
        ricci_operator(LieBracket(HEIS.dims, c))


# --- Koszul oracle ----------------------------------------------------------

def test_oracle_matches_on_q0_catalog():
    for entry in catalog_entries():
        if entry.bracket.dims.q != 0:
            continue
        a = ricci_operator(entry.bracket).ric
        b = koszul_ricci_oracle(entry.bracket).ric
        assert np.max(np.abs(a - b)) <= 1e-12, entry.name


def test_oracle_matches_on_random_nilpotents():
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 7))
        mu = random_two_step_nilpotent(n, rng)
        a = ricci_operator(mu).ric
        b = koszul_ricci_oracle(mu).ric
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-9


def test_oracle_flat():
    rd = koszul_ricci_oracle(LieBracket.zero(0, 3))
    assert np.all(rd.ric == 0.0)
    assert rd.riem_sq == 0.0


def test_oracle_riem_norm_constant_curvature():
    # |Riem|^2 = K^2 * 2n(n-1): K = 1/4 round sphere, K = -1 hyperbolic space
    assert koszul_ricci_oracle(SU2).riem_sq == pytest.approx(0.75, abs=1e-13)
    assert koszul_ricci_oracle(HYP).riem_sq == pytest.approx(12.0, abs=1e-12)


def test_oracle_rejects_isotropy():
    with pytest.raises(ValueError, match="q = 0"):
        koszul_ricci_oracle(get_entry("sphere2_su2").bracket)


# --- structural properties --------------------------------------------------

def test_quadratic_scaling():
    rng = np.random.default_rng(16)
    mus = [HEIS, SU2, HYP] + [random_bracket(0, 4, rng) for _ in range(10)]
    for mu in mus:
        base = ricci_operator(mu, check=False).ric
        for c in (0.1, 1.0, 10.0):
            got = ricci_operator(scale_bracket(mu, c), check=False).ric
            scale = max(np.max(np.abs(base)) * c * c, 1e-300)
            assert np.max(np.abs(got - c * c * base)) / scale <= 1e-12


def test_orthogonal_equivariance():
    rng = np.random.default_rng(17)
    for _ in range(10):
        mu = random_bracket(0, 4, rng)
        h, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lhs = ricci_operator(transform_bracket(mu, h), check=False).ric
        rhs = h @ ricci_operator(mu, check=False).ric @ h.T
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_operator_norm_bound_stable_across_scales():
    # ||Ric|| <= C1 |mu|^2 with the same measured C1 at every scale
    rng = np.random.default_rng(18)
    ratios = []
    for _ in range(200):
        mu = random_bracket(0, 4, rng)
        r = np.linalg.norm(ricci_operator(mu, check=False).ric, 2) / bracket_norm(mu) ** 2
        ratios.append(r)
        for c in (0.1, 10.0):
            scaled = scale_bracket(mu, c)
            r_c = np.linalg.norm(ricci_operator(scaled, check=False).ric, 2) / bracket_norm(scaled) ** 2
            assert r_c == pytest.approx(r, rel=1e-12)
    assert max(ratios) < 10.0
