from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from bracketflow.catalog import catalog_entries, get_entry
from bracketflow.algebra import _half_indices, _pi_tensor, _residuals, _transform_tensor, _triple_plan
from bracketflow.curvature import (
    DENSE_TABLE_MAX_ENTRIES,
    _dense_stack,
    _flow_table,
    _residual_forms,
    _rhs_table,
    _ricci_from_tensor,
    _ricci_gemm,
    _ricci_plan,
)
from bracketflow.flow import DenseSolution, _default_rhs_tensor, _rhs_scratch, _to_state, _to_tensor

from oracles import (
    gemm_flow_run,
    gemm_rhs,
    killing_p_loops,
    mean_curvature_loops,
    mirrored_basis_loops,
    moment_part_loops,
    pi_action_loops,
    pi_table_folded,
    polarized_jacobi,
    polarized_table,
    ricci_assembled_loops,
    ricci_table_polarized,
    support_basis,
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
    ric = _ricci_gemm(mu.c, q)
    ref = ricci_assembled_loops(mu.c, q)
    assert np.max(np.abs(ric - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(ric, ric.T)
    rd = ricci_operator(mu, check=False)  # the scalars are computed where they are read
    assert np.array_equal(rd.ric, ric)
    assert rd.scalar == ric.trace()
    assert rd.ric_sq_trace == pytest.approx(np.sum(ref * ref), rel=1e-12)


LONE_TENSORS = [entry.bracket for entry in catalog_entries()] + [
    random_bracket(2, 3, np.random.default_rng(seed)) for seed in range(3)
]


@pytest.mark.parametrize(
    "mu", LONE_TENSORS, ids=[entry.name for entry in catalog_entries()] + [f"random_q2_d5_{k}" for k in range(3)]
)
def test_ricci_operator_reads_the_gemm_kernel(mu):
    # A lone tensor has no run to hold a table: Ricci reads the GEMM kernel, bit for bit
    assert np.array_equal(ricci_operator(mu, check=False).ric, _ricci_gemm(mu.c, mu.dims.q))


@pytest.mark.parametrize("q, n", [(q, d - q) for d in range(2, 9) for q in range(d)])
def test_a_stack_takes_the_same_operations_as_its_single_calls(q, n):
    # `_ricci_gemm` and `_transform_tensor` on a (B, d, d, d) stack, as
    # `equivalence_check` calls them on its grid, equal their one-tensor
    # calls bit for bit: a stack of tensors, and one tensor pushed by a stack
    # of frames
    d, b = q + n, 5
    rng = np.random.default_rng(10 * d + q)
    c = rng.standard_normal((b, d, d, d))
    c -= c.transpose(0, 2, 1, 3)
    g = rng.standard_normal((b, d, d))
    g_inv = np.linalg.inv(g)
    ric, pushed, pushed_first = _ricci_gemm(c, q), _transform_tensor(c, g, g_inv), _transform_tensor(c[0], g, g_inv)
    assert ric.shape == (b, n, n) and pushed.shape == pushed_first.shape == c.shape
    for k in range(b):
        assert np.array_equal(ric[k], _ricci_gemm(c[k], q))
        assert np.array_equal(pushed[k], _transform_tensor(c[k], g[k], g_inv[k]))
        assert np.array_equal(pushed_first[k], _transform_tensor(c[0], g[k], g_inv[k]))


# --- tabulated forms ----------------------------------------------------------

# Every (q, n) with d <= 4 (every catalog shape), and two at d = 5.
TABLE_SHAPES = [(q, d - q) for d in range(1, 5) for q in range(d)] + [(0, 5), (2, 3)]
# Larger whole halves, all sparse tables: a metric-flow run from a dense
# metric reads the whole half's table at any d.
WHOLE_HALVES = [(1, 4), (3, 3), (1, 5), (0, 6), (0, 7)]
TABLE_RTOL = 1e-14


def _rel(got, ref):
    scale = np.max(np.abs(ref), initial=0.0)  # an empty state on the zero bracket's support
    return np.max(np.abs(got - ref)) / scale if scale > 0 else np.max(np.abs(got), initial=0.0)


def _whole_half(d):
    return tuple(range(_half_indices(d)[0].size))


def _full_table(d, q):
    # the stacked table on the whole i < j half, which a metric-flow run from a dense metric holds
    return _rhs_table(d, q, _whole_half(d))


def _dense(t):
    # [Q; P] as a dense matrix: the table's own stack, or for a sparse table
    # the one its coefficient lists scatter to
    return t.stack if t.stack is not None else _dense_stack(t.q_form, t.p_form, t.upper.size)


def _stacked(c, q):
    # s = (table @ u).reshape(2, rows, m): the Q half and the P half applied to u
    t = _full_table(c.shape[0], q)
    u = c.ravel()[t.upper]
    return (_dense(t) @ u).reshape(2, t.rows, -1), u, t.sym


def _tabulated_ricci(c, q):
    s, u, sym = _stacked(c, q)
    return (s[0] @ u)[sym]


def _live(q_half):
    # the table's Ricci rows that are not its zero row
    return q_half.reshape(len(q_half), q_half[0].size).any(axis=1)


def _halves(t):
    m = t.upper.size
    return _dense(t).reshape(2, t.rows, m, m)


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


@pytest.mark.parametrize("q, n", TABLE_SHAPES + WHOLE_HALVES)
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
        # the hot paths: the RHS on the whole table, in the half state u it
        # reads, and Ricci alone on its Q half.  A dense table's are these
        # products, with the same bits; a sparse table's sum the same
        # coefficients in another order.
        t = _full_table(q + n, q)
        du, r_hot = _default_rhs_tensor(c.ravel()[t.upper], t, _rhs_scratch(t))
        ric_hot = r_hot[t.sym]
        dc_hot, ric_from_tensor = _to_tensor(du, q + n, t), _ricci_from_tensor(c, t)
        if t.stack is not None:
            assert np.array_equal(ric_hot, ric)
            assert np.array_equal(dc_hot, _tabulated_rhs(ric, c, q))
            assert np.array_equal(ric_from_tensor, ric)
        else:
            for got in (ric_hot, ric_from_tensor):
                assert np.array_equal(got, got.T)
                for ref in (ric, _ricci_gemm(c, q), ricci_assembled_loops(c, q)):
                    assert _rel(got, ref) <= TABLE_RTOL
            abar[q:, q:] = ric_hot
            for ref in (_tabulated_rhs(ric_hot, c, q), -_pi_tensor(abar, c), -pi_action_loops(ric_hot, c, q)):
                assert _rel(dc_hot, ref) <= TABLE_RTOL


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
    du, _ = _default_rhs_tensor(_to_state(c, t), t, _rhs_scratch(t))
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
    assert _rel(_ricci_gemm(pushed, 0), _ricci_gemm(mirror, 0)) <= TABLE_RTOL
    # a table reads the i < j half, which the mirror keeps
    t = _full_table(d, 0)
    assert np.array_equal(_ricci_from_tensor(pushed, t), _ricci_from_tensor(mirror, t))


def test_ricci_operator_is_moment_minus_half_killing_minus_sym_ad_h():
    rng = np.random.default_rng(19)
    for q, n in [(0, 4), (1, 3), (2, 3)]:
        mu = random_bracket(q, n, rng)
        ad_h = np.tensordot(mean_curvature(mu), mu.c[q:, q:, q:], axes=1)
        expected = moment_part(mu) - killing_form_p(mu) / 2 - (ad_h + ad_h.T) / 2
        rd = ricci_operator(mu, check=False)
        assert np.max(np.abs(rd.ric - expected)) <= 1e-12 * np.max(np.abs(expected))


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
    assert _full_table(d, q) is t
    ref_upper, ref_basis = mirrored_basis_loops(d)
    assert np.array_equal(upper, ref_upper) and np.array_equal(t.upper, upper)
    assert np.array_equal(mirror, [np.flatnonzero(row == -1.0)[0] for row in ref_basis])
    assert np.array_equal(t.mirror, mirror)
    assert t.rows == 3  # n(n+1)/2 upper-triangle entries of Ric
    assert t.stack.shape == (2 * t.rows * 9, 9) and np.array_equal(t.sym, [[0, 1], [1, 2]])
    form = t.q_form
    for plan in (upper, mirror, t.upper, t.mirror, t.stack, t.sym, form.row, form.a, form.b, form.coef):
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
# the two-step nilpotent supports of 9, 18 and 30 entries at n = 6, 9 and 13
@example(random_two_step_nilpotent(6, np.random.default_rng(6), center_dim=3), 6)
@example(random_two_step_nilpotent(9, np.random.default_rng(9), center_dim=6), 9)
@example(random_two_step_nilpotent(13, np.random.default_rng(13), center_dim=10), 13)
def test_flow_table_lives_on_a_flow_invariant_support(mu, seed):
    d, q = mu.dims.d, mu.dims.q
    table = _flow_table(mu)
    half = _half_indices(d)[0]
    outside = np.ones(half.size, dtype=bool)
    outside[list(table.support)] = False
    assert not np.any(mu.c.ravel()[half][outside])  # S holds the initial bracket
    assert table.grown == table.support
    # at a random point of V_S the GEMM RHS is exactly 0 outside S, and the
    # restricted RHS and its Ric are the GEMM ones
    u = np.random.default_rng(seed).standard_normal(len(table.support))
    c = _to_tensor(u, d, table)
    assert np.array_equal(c.ravel()[half][~outside], u)
    gemm, ric = gemm_rhs(c, q)
    assert not np.any(gemm.ravel()[half][outside])
    du, r_table = _default_rhs_tensor(u, table, _rhs_scratch(table))
    assert _rel(_to_tensor(du, d, table), gemm) <= TABLE_RTOL
    assert _rel(r_table[table.sym], ric) <= TABLE_RTOL


@pytest.mark.parametrize("n", [6, 7])
def test_dense_supports_step_on_their_table_like_the_gemm_kernels(n):
    # A dense moved nilpotent bracket fills the whole half: at n = 6, m' = 90
    # and 21 Ricci rows make 340k dense entries, at n = 7 1.2M.  It steps on
    # that table, through its nonzero coefficients, and agrees with a run on
    # the flat tensor whose RHS is the GEMM kernels.
    rng = np.random.default_rng(4)
    mu = transform_bracket(random_two_step_nilpotent(n, rng), _invertible(rng, n))
    t = _flow_table(mu)
    assert t.support == _whole_half(n) and t.stack is None
    assert t.entries == 2 * (n * (n + 1) // 2) * (n * n * (n - 1) // 2) ** 2 > DENSE_TABLE_MAX_ENTRIES
    traj = integrate(mu, "backward", 2.0)
    ref = gemm_flow_run(mu, "backward", 2.0)
    assert traj.verdict.kind == ref.verdict.kind == "blowup"
    assert traj.n_samples == ref.t.size
    assert abs(traj.verdict.omega_est - ref.verdict.omega_est) <= 1e-12 * abs(ref.verdict.omega_est)


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
    ref = gemm_flow_run(mu, "forward", 3.0, opts)
    assert traj.n_samples == ref.t.size
    assert np.abs(traj.checkpoints[-1].mu.c[0, 1, 2]) > 0.1  # the grown entries move
    ref_dense = DenseSolution(ref.t, ref.segments)
    np.testing.assert_allclose(traj.dense(3.0), ref_dense(3.0), rtol=1e-9, atol=1e-12)


# --- a table applied as its dense stack or through its nonzero coefficients ---

def _nilpotent_table(n, center):
    return _flow_table(random_two_step_nilpotent(n, np.random.default_rng(0), center_dim=center))


def test_the_rule_keeps_small_tables_dense_and_large_ones_sparse():
    # Every catalog table, on its flow's support or on the whole half, and
    # the metric_equivalence supports (two-step nilpotent at n = 5 and 6)
    # keep the dense stack; the nilpotent supports at n = 9 and 13 and the
    # whole half at d = 5 and 6, q = 0, are applied through their nonzero
    # coefficients and build no dense array.
    catalog = [entry.bracket for entry in catalog_entries()]
    dense = [_flow_table(mu) for mu in catalog] + [_full_table(mu.dims.d, mu.dims.q) for mu in catalog]
    dense += [_nilpotent_table(5, 2), _nilpotent_table(6, 3)]
    for t in dense:
        assert t.entries <= DENSE_TABLE_MAX_ENTRIES and t.stack.size == t.entries
    assert max(t.entries for t in dense[: len(catalog)]) == 72
    assert [t.entries for t in dense[-2:]] == [720, 2106]
    sparse = [_nilpotent_table(9, 6), _nilpotent_table(13, 10), _full_table(5, 0), _full_table(6, 0)]
    for t in sparse:
        assert DENSE_TABLE_MAX_ENTRIES < t.entries and t.stack is None
    assert [t.entries for t in sparse] == [18144, 111600, 75000, 340200]
    assert [t.q_form.coef.size + t.p_form.coef.size for t in sparse] == [297, 675, 1310, 3030]


def _assert_table_matches_the_kernels(t, d, q, u):
    # Exactly, one coefficient at a time: each form evaluated at basis
    # vectors isolates one term, and the GEMM Ricci kernel polarized on the
    # mirrored basis, and the pi kernel on it, give the same exact numbers;
    # so does each entry of the dense stack.  At the state u, to TABLE_RTOL:
    # the forms, the dense product and the GEMM kernels; and the hot path
    # is, bit for bit, the side of the rule the table is on.
    m = t.upper.size
    e = support_basis(d, np.array(t.support, dtype=np.intp))
    units, rows = np.eye(m), np.eye(t.rows)
    ric = [_ricci_gemm(e[a], q) for a in range(m)]
    live = np.zeros(t.sym.shape, dtype=bool)  # the entries of Ric that are not 0 on all of V_S
    q_half, p_half = _halves(t)
    for a in range(m):
        for b in range(a, m):
            ref = ric[a] if a == b else _ricci_gemm(e[a] + e[b], q) - ric[a] - ric[b]
            live |= ref != 0
            got = t.q_form(units[a], units[b]) + t.q_form(units[b], units[a]) * (a < b)
            assert np.array_equal(got[t.sym], ref)
            assert np.array_equal(q_half[:, a, b][t.sym], ref if a == b else ref / 2)
            assert np.array_equal(q_half[:, b, a][t.sym], ref if a == b else ref / 2)
    for k in range(t.rows):
        i, j = np.argwhere(t.sym == k)[0]
        unit = np.zeros((d, d))
        unit[q + i, q + j] = unit[q + j, q + i] = live[i, j]  # the zero row moves nothing
        ref = -_pi_tensor(unit, e).reshape(m, d**3)[:, t.upper]  # m = 0 on the zero bracket's support
        assert np.array_equal(np.reshape([t.p_form(rows[k], units[a]) for a in range(m)], (m, m)), ref)
        assert np.array_equal(p_half[k].T, ref)
    c = _to_tensor(u, d, t)
    gemm, ric_u = gemm_rhs(c, q)
    r_sparse = t.q_form(u, u)
    du_sparse = t.p_form(r_sparse, u)
    s = (_dense(t) @ u).reshape(2, t.rows, -1)
    r_dense = s[0] @ u
    du_dense = r_dense @ s[1]
    for r in (r_sparse, r_dense):
        assert _rel(r[t.sym], ric_u) <= TABLE_RTOL
    assert _rel(r_sparse, r_dense) <= TABLE_RTOL
    for du in (du_sparse, du_dense):
        assert _rel(_to_tensor(du, d, t), gemm) <= TABLE_RTOL
    assert _rel(du_sparse, du_dense) <= TABLE_RTOL
    du, r_hot = _default_rhs_tensor(u, t, _rhs_scratch(t))
    hot_du, hot_r = (du_sparse, r_sparse) if t.stack is None else (du_dense, r_dense)
    assert np.array_equal(du, hot_du) and np.array_equal(r_hot, hot_r)


@st.composite
def table_supports(draw):
    """The supports `flow_brackets` gives, and the whole half at d = 3 to 5, every q."""
    if draw(st.booleans()):
        mu = draw(flow_brackets())
        return mu.dims.d, mu.dims.q, _flow_table(mu)
    d = draw(st.integers(3, 5))
    q = draw(st.integers(0, d - 1))
    return d, q, _full_table(d, q)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(table_supports(), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e7]))
def test_sparse_and_dense_tables_equal_the_kernels(support, seed, scale):
    d, q, t = support
    u = scale * np.random.default_rng(seed).standard_normal(t.upper.size)
    _assert_table_matches_the_kernels(t, d, q, u)


def test_the_table_comparison_sees_one_ulp_and_one_dropped_term():
    # A table whose lists (or dense stack) are off by one ulp in one
    # coefficient, or miss one term, fails the comparison above, whichever
    # coefficient it is.
    sparse = _nilpotent_table(9, 6)
    dense = _nilpotent_table(6, 3)
    u = np.random.default_rng(3).standard_normal(sparse.upper.size)
    _assert_table_matches_the_kernels(sparse, 9, 0, u)
    rng = np.random.default_rng(7)

    def mutated(form, ulp):
        p = rng.integers(form.coef.size)
        if ulp:
            coef = form.coef.copy()
            coef[p] = np.nextafter(coef[p], np.inf)
            return replace(form, coef=coef)
        keep = np.arange(form.coef.size) != p
        return replace(form, row=form.row[keep], a=form.a[keep], b=form.b[keep], coef=form.coef[keep])

    for _ in range(4):
        for field in ("q_form", "p_form"):
            for ulp in (True, False):
                t = replace(sparse, **{field: mutated(getattr(sparse, field), ulp)})
                with pytest.raises(AssertionError):
                    _assert_table_matches_the_kernels(t, 9, 0, u)
        stack = dense.stack.copy()
        p = rng.choice(np.flatnonzero(stack))
        stack.flat[p] = np.nextafter(stack.flat[p], np.inf)
        with pytest.raises(AssertionError):
            _assert_table_matches_the_kernels(replace(dense, stack=stack), 6, 0, u[: dense.upper.size])


# The supports the RHS kernel is checked on: every catalog entry's, the
# two-step nilpotent ones of the benchmark's sizes (dense at n = 6, sparse at
# n = 9 and 13) and the whole half at d = 3 and 4, every q (all dense).
KERNEL_SUPPORTS = (
    [entry.name for entry in catalog_entries()]
    + [f"nilpotent-{n}" for n in (6, 9, 13)]
    + [f"half-{d}-{q}" for d in (3, 4) for q in range(d)]
)


def _kernel_table(label):
    kind, *dims = label.split("-")
    if kind == "nilpotent":
        return _flow_table(random_two_step_nilpotent(int(dims[0]), np.random.default_rng(0)))
    if kind == "half":
        return _full_table(int(dims[0]), int(dims[1]))
    return _flow_table(get_entry(label).bracket)


@pytest.mark.parametrize("label", KERNEL_SUPPORTS)
def test_rhs_kernel_equals_its_reference_products_bit_for_bit(label):
    # The sparse kernel's one gather feeds the two forms' own products,
    # (coef * x[a]) * y[b] term by term, so it equals q_form(u, u), then
    # p_form(r, u); the dense kernel's product into the run's buffer, read
    # through the buffer's fixed views, equals the product into a fresh
    # array and its reshape.  The buffer is rewritten by every call, and
    # neither result is a view of it.
    t = _kernel_table(label)
    scratch = _rhs_scratch(t)
    assert (scratch is None) == (t.stack is None)
    rng = np.random.default_rng(8)
    for scale in (1e-3, 1.0, 1e7):
        u = scale * rng.standard_normal(t.upper.size)
        dy, r = _default_rhs_tensor(u, t, scratch)
        if t.stack is None:
            ref_r = t.q_form(u, u)
            ref_dy = t.p_form(ref_r, u)
        else:
            s = np.dot(t.stack, u).reshape(2, t.rows, t.upper.size)
            ref_r = np.dot(s[0], u)
            ref_dy = np.dot(ref_r, s[1])
            assert not np.shares_memory(dy, scratch[0]) and not np.shares_memory(r, scratch[0])
        assert np.array_equal(dy, ref_dy) and np.array_equal(r, ref_r)
        assert dy.dtype == r.dtype == np.float64


@pytest.mark.parametrize("label", KERNEL_SUPPORTS)
def test_every_array_of_a_table_is_read_only(label):
    # A table is cached and shared by every run on its support, so none of
    # its arrays, nor its forms', may be written; the sparse kernel's gather
    # index is the forms' operand indices into u, [q.a | q.b | p.b].
    t = _kernel_table(label)
    q, p = t.q_form, t.p_form
    if t.stack is None:
        assert np.array_equal(t.gather, np.concatenate([q.a, q.b, p.b]))
    else:
        assert t.gather is None
    arrays = [getattr(obj, f.name) for obj in (t, q, p) for f in fields(obj)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert len(arrays) == 12  # upper, mirror, sym, the stack or the gather, and four per form
    for a in arrays:
        assert not a.flags.writeable


@st.composite
def random_supports(draw):
    """A random support of the i < j half at d <= 6, every q, of any density, or a flow's support."""
    if draw(st.integers(0, 3)) == 0:
        mu = draw(flow_brackets())
        return mu.dims.d, mu.dims.q, _flow_table(mu).support
    d = draw(st.integers(1, 6))
    q = draw(st.integers(0, d - 1))
    live = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(_half_indices(d)[0].size)
    return d, q, tuple(np.flatnonzero(live < draw(st.floats(0.0, 1.0))).tolist())


def _assert_same_lists(form, ref):
    # the same coefficients, in the same order and with the same dtypes, bit for bit
    for got, want in zip((form.row, form.a, form.b, form.coef), ref, strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_supports())
def test_tables_and_jacobi_forms_equal_the_polarized_ones_exactly(support):
    # Written down from index terms, Q, P, `grown` and the Jacobi forms are
    # the coefficients polarizing the kernels on the mirrored basis gives,
    # in the same (a, b, component) order, so every sum over them rounds as
    # it did when they were polarized.
    d, q, support = support
    t = _rhs_table(d, q, support)
    (active, *q_lists), p_lists, grown = polarized_table(d, q, support)
    assert t.rows == active.size + (active.size < (d - q) * (d - q + 1) // 2)
    _assert_same_lists(t.q_form, q_lists)
    _assert_same_lists(t.p_form, p_lists)
    assert t.grown == grown
    jac_active, *jac_lists = polarized_jacobi(d, support)
    forms = _residual_forms(d, q, support)
    assert forms.jac.rows == jac_active.size
    _assert_same_lists(forms.jac, jac_lists)


# --- admissibility residuals as forms on the support ------------------------

@st.composite
def residual_supports(draw):
    """The supports `flow_brackets` gives, and the whole half at d <= 4, every q."""
    if draw(st.booleans()):
        return draw(flow_brackets())
    d = draw(st.integers(3, 4))
    q = draw(st.integers(0, d - 1))
    return random_bracket(q, d - q, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(residual_supports(), st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e7]))
def test_residual_forms_equal_the_flat_check_on_the_support(mu, seed, scale):
    # At a random state on V_S the forms give the flat check's residuals of
    # the tensor it stands for: h1 and h3 bit for bit (rows of +-1 sums),
    # the Jacobiator to rounding, relative to |mu|^2.
    d, q = mu.dims.d, mu.dims.q
    table = _flow_table(mu)
    u = scale * np.random.default_rng(seed).standard_normal(len(table.support))
    jac, h1, h3 = _residual_forms(d, q, table.support).residuals(u)
    ref_jac, ref_h1, ref_h3 = _residuals(_to_tensor(u, d, table), q)
    assert (h1, h3) == (ref_h1, ref_h3)
    assert abs(jac - ref_jac) <= 1e-12 * 2 * np.dot(u, u)


@pytest.mark.parametrize("q, n, jac_rows", [(0, 3, 3), (0, 4, 16), (1, 3, 16)])
def test_residual_forms_keep_the_rows_of_a_dense_support(q, n, jac_rows):
    # On the whole half the Jacobiator has d * C(d, 3) components (3 at
    # d = 3, 16 at d = 4), and none vanishes identically there; with q > 0
    # h1 and h3 rows survive too.
    d = q + n
    forms = _residual_forms(d, q, _whole_half(d))
    assert forms.jac.rows == jac_rows
    assert (forms.lin.shape[0] > 0) == (q > 0)


@pytest.mark.parametrize("name", ["heisenberg3", "su2_round", "hyperbolic3", "nilpotent4", "hyperbolic_plane"])
def test_residual_forms_have_no_row_where_the_residuals_vanish_identically(name):
    mu = get_entry(name).bracket
    table = _flow_table(mu)
    assert _residual_forms(mu.dims.d, mu.dims.q, table.support).rows == 0
    # and the flat check reads exact zeros there
    u = np.random.default_rng(1).standard_normal(len(table.support))
    assert _residuals(_to_tensor(u, mu.dims.d, table), mu.dims.q) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("name", ["sphere2_su2", "sphere2_times_line"])
def test_residual_forms_of_the_isotropy_entries_are_two_h3_rows(name):
    mu = get_entry(name).bracket
    forms = _residual_forms(mu.dims.d, mu.dims.q, _flow_table(mu).support)
    assert (forms.jac.rows, forms.h1_rows, forms.lin.shape[0]) == (0, 0, 2)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 10), st.integers(0, 2**32 - 1), st.data())
def test_residual_forms_have_no_row_on_a_two_step_nilpotent_support(n, seed, data):
    # [v, v] lies in the centre z, so no two support entries chain: no
    # Jacobi pair is even evaluated, and q = 0 has no h1 or h3
    center = data.draw(st.integers(1, n - 2))
    mu = random_two_step_nilpotent(n, np.random.default_rng(seed), center_dim=center)
    assert _residual_forms(n, 0, _flow_table(mu).support).rows == 0


@pytest.mark.parametrize("q, n", [(0, 3), (1, 2)])
def test_forms_with_no_terms_give_float_zeros(q, n):
    # The empty support's table, the zero bracket's, has no Q or P term, and
    # np.bincount of no terms would ignore the float weights and count in
    # int64.
    table = _flow_table(LieBracket.zero(q, n))
    u = np.zeros(0)
    r = table.q_form(u, u)
    assert r.dtype == np.float64 and np.array_equal(r, np.zeros(table.rows))
    dy = table.p_form(r, u)
    assert dy.dtype == np.float64 and dy.shape == (0,)


def test_residual_forms_at_n13_are_empty():
    mu = random_two_step_nilpotent(13, np.random.default_rng(0))
    forms = _residual_forms(13, 0, _flow_table(mu).support)
    assert forms.rows == 0 and forms.jac.coef.size == 0


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
