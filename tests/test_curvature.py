import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketflow import (
    IntegratorOptions,
    LieBracket,
    NotInVarietyError,
    bracket_norm,
    integrate,
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
from bracketflow import curvature
from bracketflow.catalog import catalog_entries, get_entry
from bracketflow.algebra import _half_indices, _pi_tensor, _transform_tensor, _triple_plan
from bracketflow.curvature import (
    TABLE_MAX_ENTRIES,
    _closed_table,
    _flow_table,
    _rhs_table,
    _ricci_from_tensor,
    _ricci_gemm,
    _ricci_plan,
    _ricci_table,
)
from bracketflow.flow import _default_rhs_tensor, _to_state, _to_tensor

from oracles import (
    killing_p_loops,
    mean_curvature_loops,
    mirrored_basis_loops,
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


# --- tabulated forms ----------------------------------------------------------

# Every (q, n) with d <= 4 (every catalog shape), and two at d = 5.
TABLE_SHAPES = [(q, d - q) for d in range(1, 5) for q in range(d)] + [(0, 5), (2, 3)]
TABLE_RTOL = 1e-14


def _rel(got, ref):
    scale = np.max(np.abs(ref))
    return np.max(np.abs(got - ref)) / scale if scale > 0 else np.max(np.abs(got))


def _whole_half(d):
    return tuple(range(_half_indices(d)[0].size))


def _full_table(d, q):
    # the stacked table on the whole i < j half, which `_ricci_from_tensor` applies where it fits
    return _rhs_table(d, q, _whole_half(d))


def _stacked(c, q):
    # s = (table @ u).reshape(2, rows, m): the Q half and the P half applied to u
    t = _full_table(c.shape[0], q)
    u = c.ravel()[t.upper]
    return (t.stack @ u).reshape(2, t.rows, -1), u, t.sym


def _tabulated_ricci(c, q):
    s, u, sym = _stacked(c, q)
    return (s[0] @ u)[sym]


def _live(q_half):
    # the table's Ricci rows that are not its zero row
    return q_half.reshape(len(q_half), q_half[0].size).any(axis=1)


def _halves(t):
    m = t.upper.size
    return t.stack.reshape(2, t.rows, m, m)


def _tabulated_rhs(a, c, q):
    # -pi(diag(0, a)) c for a symmetric n x n matrix a: P is folded onto the
    # rows of Ric's upper triangle, less those where Ric vanishes on every
    # bracket (the zero row), so those entries of a count as 0; the half is
    # mirrored by the loop-built basis
    s, _, sym = _stacked(c, q)
    r = np.zeros(len(s[1]))
    r[sym] = a
    r[~_live(_halves(_full_table(c.shape[0], q))[0])] = 0.0
    return (r @ s[1] @ mirrored_basis_loops(c.shape[0])[1]).reshape(c.shape)


def _dropped(d, q):
    # entries of Ric that read the full table's zero row: 0 on every bracket
    t = _full_table(d, q)
    return ~_live(_halves(t)[0])[t.sym]


@pytest.mark.parametrize("q, n", TABLE_SHAPES)
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e7])
def test_tables_match_the_gemm_kernels_and_the_loop_oracles(q, n, scale):
    rng = np.random.default_rng(300 + 10 * q + n)
    for _ in range(3):
        c = random_bracket(q, n, rng, scale).c
        ric = _tabulated_ricci(c, q)
        assert np.array_equal(ric, ric.T)
        assert _rel(ric, _ricci_gemm(c, q)) <= TABLE_RTOL
        assert _rel(ric, ricci_assembled_loops(c, q)) <= TABLE_RTOL
        a = rng.standard_normal((n, n))
        a = a + a.T  # symmetric, like every Ric the table is applied to
        a[_dropped(q + n, q)] = 0.0  # (0, 1) and (0, 2): Ric is a multiple of the identity
        dc = _tabulated_rhs(a, c, q)
        abar = np.zeros((q + n,) * 2)
        abar[q:, q:] = a
        assert _rel(dc, -_pi_tensor(abar, c)) <= TABLE_RTOL
        assert _rel(dc, -pi_action_loops(a, c, q)) <= TABLE_RTOL
        # the hot paths are these products: the RHS on the whole table, in
        # the half state u it reads, Ricci alone on its Q half, with the
        # same bits
        t = _full_table(q + n, q)
        du, ric_hot = _default_rhs_tensor(c.ravel()[t.upper], q + n, q, t)
        assert np.array_equal(ric_hot, ric)
        assert np.array_equal(_to_tensor(du, q + n, t), _tabulated_rhs(ric, c, q))
        assert np.array_equal(_ricci_from_tensor(c, q), ric)


@pytest.mark.parametrize("q, n", [(q, n) for q, n in TABLE_SHAPES if q + n <= 4])
def test_stacked_table_equals_the_earlier_builders_bit_for_bit(q, n):
    # Q polarized over a <= b with the diagonal reused, P built from the
    # symmetric units: the same exact coefficients as the earlier
    # (plus - minus) / 4 form and the folded n^2-row pi table, on the rows
    # of Ric that are not 0 on every bracket (all but Ric[0, 0] at (0, 1)
    # and Ric[0, 1] at (0, 2), where Ric is a multiple of the identity), and
    # a zero row for the rest.
    d = q + n
    t = _full_table(d, q)
    assert t.grown == t.support
    ref_q, ref_p = ricci_table_polarized(d, q), pi_table_folded(d, q)
    live = _live(ref_q)
    assert np.sum(~live) == (1 if (q, n) in ((0, 1), (0, 2)) else 0)
    assert t.rows == live.sum() + (not live.all())
    q_half, p_half = _halves(t)
    assert np.array_equal(q_half[: live.sum()], ref_q[live])
    assert np.array_equal(p_half[: live.sum()], ref_p[live])
    assert not np.any(q_half[live.sum() :]) and not np.any(p_half[live.sum() :])


@pytest.mark.parametrize("q, n", [(0, 2), (0, 3), (1, 2), (0, 4), (1, 3), (2, 2)])
def test_tabulated_rhs_is_exactly_antisymmetric(q, n):
    c = random_bracket(q, n, np.random.default_rng(40 + n), 3.0).c
    t = _full_table(q + n, q)
    du, _ = _default_rhs_tensor(_to_state(c, t), q + n, q, t)
    assert du.shape == (_half_indices(q + n)[0].size,)  # the whole half: the support of a dense bracket
    dmu = _to_tensor(du, q + n, t)
    assert np.array_equal(dmu, -dmu.transpose(1, 0, 2))
    assert not np.any(np.diagonal(dmu, axis1=0, axis2=1))


@pytest.mark.parametrize(
    "mu",
    [
        random_two_step_nilpotent(6, np.random.default_rng(6)),
        random_two_step_nilpotent(9, np.random.default_rng(9), center_dim=4),
        random_bracket(1, 3, np.random.default_rng(4)),
        random_bracket(0, 5, np.random.default_rng(5)),
    ],
    ids=["nilpotent6", "nilpotent9", "random_q1_d4", "random_d5"],
)
def test_index_rebuild_equals_the_loop_basis_product(mu):
    # `_to_tensor` writes u at the support's flat indices and -u at their
    # mirrors: the tensor u times the loop-built basis rows of the support,
    # for one state and for a stack of states as columns
    d = mu.dims.d
    table = _flow_table(mu)
    basis = mirrored_basis_loops(d)[1][list(table.support)]
    u = _to_state(mu.c, table)
    assert np.array_equal(_to_tensor(u, d, table).ravel(), u @ basis)
    assert np.array_equal(_to_tensor(u, d, table), mu.c)
    stack = np.random.default_rng(d).standard_normal((u.size, 4))
    assert np.array_equal(_to_tensor(stack, d, table).reshape(d**3, 4), basis.T @ stack)


# The whole half's table (m = 50, 75k entries at q = 0) fits at d = 5, and at
# d = 6 with q = 3 (97k); at d = 6, q = 0 it would hold 340k entries.
RICCI_DISPATCH = [(0, 5, True), (1, 4, True), (2, 3, True), (3, 3, True), (0, 6, False)]


@pytest.mark.parametrize("q, n, tabulated", RICCI_DISPATCH)
def test_ricci_applies_the_whole_half_table_exactly_when_the_rule_admits_it(monkeypatch, q, n, tabulated):
    d = q + n
    table = _closed_table(d, q, _whole_half(d))
    assert (table is not None) == tabulated
    assert _ricci_table(d, q) is table
    c = random_bracket(q, n, np.random.default_rng(60 + 10 * q + n)).c
    gemm = _ricci_gemm(c, q)
    calls = []

    def counted(c, q, _gemm=_ricci_gemm):
        calls.append(1)
        return _gemm(c, q)

    monkeypatch.setattr(curvature, "_ricci_gemm", counted)
    ric = _ricci_from_tensor(c, q)
    assert len(calls) == (0 if tabulated else 1)
    assert np.array_equal(ric, ric.T)
    if tabulated:
        assert table.stack.size <= TABLE_MAX_ENTRIES
        assert _rel(ric, gemm) <= TABLE_RTOL
    else:
        assert np.array_equal(ric, gemm)


@pytest.mark.parametrize(
    "mu",
    [
        SU2,
        get_entry("nilpotent4").bracket,
        random_bracket(0, 5, np.random.default_rng(5)),
        random_bracket(0, 6, np.random.default_rng(6)),
    ],
    ids=["su2_round", "nilpotent4", "random_d5", "random_d6_gemm_path"],
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
    if _ricci_table(d, 0) is not None:  # the table reads the i < j half, which the mirror keeps
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
    # the stacked table on the whole half and the i < j half it is written in
    d, q = 3, 1
    upper, mirror = _half_indices(d)
    assert _half_indices(d)[0] is upper
    t = _full_table(d, q)
    assert _full_table(d, q) is t and _ricci_table(d, q) is t
    ref_upper, ref_basis = mirrored_basis_loops(d)
    assert np.array_equal(upper, ref_upper) and np.array_equal(t.upper, upper)
    assert np.array_equal(mirror, [np.flatnonzero(row == -1.0)[0] for row in ref_basis])
    assert np.array_equal(t.mirror, mirror)
    assert t.rows == 3  # n(n+1)/2 upper-triangle entries of Ric
    assert t.stack.shape == (2 * t.rows * 9, 9) and np.array_equal(t.sym, [[0, 1], [1, 2]])
    for plan in (upper, mirror, t.upper, t.mirror, t.stack, t.sym):
        with pytest.raises(ValueError, match="read-only"):
            plan.flat[0] = 0
    c = random_bracket(q, d - q, np.random.default_rng(3)).c
    assert np.array_equal(_to_tensor(c.ravel()[upper], d, t), c)


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


# --- the bracket flow's table on the support of its initial bracket ---------

def _gemm_rhs(c, q):
    # the bracket flow's RHS and Ric on the flat tensor from the GEMM kernels, no table
    d = c.shape[0]
    abar = np.zeros((d, d))
    abar[q:, q:] = _ricci_gemm(c, q)
    return -_pi_tensor(abar, c), abar[q:, q:]


def _invertible(rng, k):
    return np.eye(k) + 0.3 * rng.standard_normal((k, k))


@st.composite
def flow_brackets(draw):
    """Seeded two-step nilpotent brackets, catalog entries, catalog entries moved by a
    permutation or a block-diagonal g, and dense moved nilpotent brackets at d = 5."""
    kind = draw(st.sampled_from(["nilpotent", "catalog", "permuted", "block", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "nilpotent":
        n = draw(st.integers(5, 10))
        return random_two_step_nilpotent(n, rng, center_dim=draw(st.integers(1, n - 2)))
    if kind == "dense":
        return transform_bracket(random_two_step_nilpotent(5, rng), _invertible(rng, 5))
    mu = draw(st.sampled_from([entry.bracket for entry in catalog_entries()]))
    q, d = mu.dims.q, mu.dims.d
    if kind == "catalog":
        return mu
    if kind == "permuted":  # within k and within p
        g = np.eye(d)[np.concatenate([rng.permutation(q), q + rng.permutation(d - q)])]
    else:
        split = draw(st.integers(0, d))
        g = np.zeros((d, d))
        g[:split, :split] = _invertible(rng, split)
        g[split:, split:] = _invertible(rng, d - split)
    return transform_bracket(mu, g)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(flow_brackets(), st.integers(0, 2**32 - 1))
def test_flow_table_lives_on_a_flow_invariant_support(mu, seed):
    d, q = mu.dims.d, mu.dims.q
    table = _flow_table(mu)
    if table is None:  # over TABLE_MAX_ENTRIES: the flow steps on the flat tensor
        return
    half = _half_indices(d)[0]
    outside = np.ones(half.size, dtype=bool)
    outside[list(table.support)] = False
    assert not np.any(mu.c.ravel()[half][outside])  # S holds the initial bracket
    assert table.grown == table.support and table.stack.size <= TABLE_MAX_ENTRIES
    # at a random point of V_S the GEMM RHS is exactly 0 outside S, and the
    # restricted RHS and its Ric are the GEMM ones
    u = np.random.default_rng(seed).standard_normal(len(table.support))
    c = _to_tensor(u, d, table)
    assert np.array_equal(c.ravel()[half][~outside], u)
    gemm, ric = _gemm_rhs(c, q)
    assert not np.any(gemm.ravel()[half][outside])
    du, ric_table = _default_rhs_tensor(u, d, q, table)
    assert _rel(_to_tensor(du, d, table), gemm) <= TABLE_RTOL
    assert _rel(ric_table, ric) <= TABLE_RTOL


def test_support_over_the_bound_takes_the_gemm_path():
    # A dense moved nilpotent bracket at d = 6 fills the whole half: m' = 90
    # and 21 Ricci rows make 340k entries.  The one-assembly size bound
    # refuses it without a build, and the built table is indeed over.
    rng = np.random.default_rng(4)
    mu = transform_bracket(random_two_step_nilpotent(6, rng), _invertible(rng, 6))
    assert _flow_table(mu) is None
    assert _rhs_table(6, 0, _whole_half(6)).stack.size == 2 * 21 * 90**2 > TABLE_MAX_ENTRIES
    # while d = 5, 75k entries, fits
    mu5 = transform_bracket(random_two_step_nilpotent(5, rng), _invertible(rng, 5))
    assert _flow_table(mu5).support == _whole_half(5)


def test_support_grows_until_the_flow_cannot_leave_it():
    # [e0, e1] = e1, [e0, e2] = 2 e1: the flow also moves c[0, 1, 2] and
    # c[0, 2, 2], which are 0 at the start
    mu = LieBracket.from_triples(0, 3, [(0, 1, 1, 1.0), (0, 2, 1, 2.0)])
    table = _flow_table(mu)
    half = _half_indices(3)[0]
    assert [np.unravel_index(half[a], (3, 3, 3)) for a in table.support] == [
        (0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2)
    ]
    assert table.grown == table.support
    opts = IntegratorOptions(collect_dense=True)
    traj = integrate(mu, "forward", 3.0, opts)
    ref = integrate(mu, "forward", 3.0, opts, rhs=lambda b: LieBracket(b.dims, _gemm_rhs(b.c, 0)[0]))
    assert traj.n_samples == ref.n_samples
    assert np.abs(traj.checkpoints[-1].mu.c[0, 1, 2]) > 0.1  # the grown entries move
    np.testing.assert_allclose(traj.dense(3.0), ref.dense(3.0), rtol=1e-9, atol=1e-12)


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
