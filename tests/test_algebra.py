import numpy as np
import pytest

from bracketflow import (
    DimensionMismatchError,
    Dimensions,
    LieBracket,
    bracket_norm,
    check_conditions,
    jacobiator,
    pi_action,
    random_bracket,
    random_two_step_nilpotent,
    scale_bracket,
    transform_bracket,
)
from bracketflow.algebra import _residuals
from bracketflow.catalog import get_entry

from oracles import antisymmetrized_by_mask, jacobi_max_loops, jacobiator_loops, norm_loops, pi_action_loops, transform_loops

HEIS = get_entry("heisenberg3").bracket
SU2 = get_entry("su2_round").bracket


def test_norm_zero_bracket():
    assert bracket_norm(LieBracket.zero(0, 3)) == 0.0


def test_norm_heisenberg_sqrt2():
    # ordered pairs (1,2) and (2,1) each contribute 1
    assert bracket_norm(HEIS) == pytest.approx(np.sqrt(2.0), rel=0, abs=1e-15)
    assert norm_loops(HEIS.c) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_norm_su2_sqrt6():
    assert bracket_norm(SU2) == pytest.approx(np.sqrt(6.0), abs=1e-15)
    assert norm_loops(SU2.c) == pytest.approx(np.sqrt(6.0), abs=1e-15)


def test_norm_scaling_exact():
    rng = np.random.default_rng(1)
    mu = random_bracket(1, 3, rng)
    base = bracket_norm(mu)
    for c in (-3.0, -1.0, 0.0, 0.5, 2.0, 10.0):
        assert bracket_norm(scale_bracket(mu, c)) == pytest.approx(abs(c) * base, rel=1e-15)
    assert bracket_norm(scale_bracket(HEIS, 2.0)) == pytest.approx(2 * np.sqrt(2.0), rel=1e-15)


def test_construction_mirrors_upper_triangle():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = 123.0  # ignored: the i < j entry is authoritative
    c[1, 1, 0] = 5.0  # diagonal pairs are dropped
    mu = LieBracket(Dimensions(0, 3), c)
    assert mu.c[1, 0, 2] == -1.0
    assert mu.c[1, 1, 0] == 0.0
    assert not mu.c.flags.writeable


@pytest.mark.parametrize("d", [3, 6, 13])
def test_construction_matches_mirror_loop_on_dense_input(d):
    c = np.random.default_rng(d).standard_normal((d, d, d))
    want = np.zeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            want[i, j, :] = c[i, j, :]
            want[j, i, :] = -c[i, j, :]
    mu = LieBracket(Dimensions(1, d - 1), c)
    assert np.array_equal(mu.c, want)
    c[0, 1, :] = 99.0  # the bracket holds its own copy
    assert np.array_equal(mu.c, want)


def test_construction_is_bit_identical_to_the_mask_form():
    # The mirror is written through `_half_indices` as 0.0 - u; the earlier
    # mask form s - s^T gives the same bits, signed zeros included.
    for d in (1, 3, 6):
        c = np.random.default_rng(20 + d).standard_normal((d, d, d))
        c[np.random.default_rng(d).random((d, d, d)) < 0.3] = -0.0
        c.ravel()[::5] = 0.0
        mu = LieBracket(Dimensions(0, d), c)
        ref = antisymmetrized_by_mask(c)
        if d > 1:
            assert np.any(np.signbit(ref) & (ref == 0))  # the case is live
        assert mu.c.tobytes() == ref.tobytes()
        assert not mu.c.flags.writeable


def test_from_triples_one_indexed_and_reversed_pairs():
    mu = LieBracket.from_triples(
        0, 3, [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0)], one_indexed=True
    )
    assert np.array_equal(mu.c, SU2.c)


def test_from_triples_rejects_conflicts_and_bad_indices():
    with pytest.raises(ValueError, match="conflicts"):
        LieBracket.from_triples(0, 3, [(0, 1, 2, 1.0), (1, 0, 2, 1.0)])
    with pytest.raises(ValueError, match="out of range"):
        LieBracket.from_triples(0, 3, [(0, 1, 5, 1.0)])
    with pytest.raises(ValueError, match="i == j"):
        LieBracket.from_triples(0, 3, [(1, 1, 2, 1.0)])
    # consistent duplicate (the antisymmetric mirror) is fine
    mu = LieBracket.from_triples(0, 3, [(0, 1, 2, 1.0), (1, 0, 2, -1.0)])
    assert mu.c[0, 1, 2] == 1.0


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_from_triples_rejects_a_value_that_is_not_finite(value):
    with pytest.raises(ValueError, match=r"bracket entry \(0, 1, 2, .*\): value must be finite"):
        LieBracket.from_triples(0, 3, [(0, 1, 2, value)])


def test_pi_identity_on_p_is_minus_mu_when_q_zero():
    out = pi_action(np.eye(3), SU2)
    assert np.allclose(out.c, -SU2.c, atol=1e-15)


def test_pi_zero_bracket():
    rng = np.random.default_rng(2)
    out = pi_action(rng.standard_normal((3, 3)), LieBracket.zero(0, 3))
    assert np.all(out.c == 0.0)


def test_pi_heisenberg_diagonal():
    # a = diag(r, r, s) leaves a single coefficient s - 2r on (e1, e2, e3)
    r, s = 0.7, -1.3
    out = pi_action(np.diag([r, r, s]), HEIS)
    expected = LieBracket.from_triples(0, 3, [(0, 1, 2, s - 2 * r)])
    assert np.allclose(out.c, expected.c, atol=1e-15)


def test_pi_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for q, n in [(0, 3), (1, 2), (2, 3)]:
        mu = random_bracket(q, n, rng)
        a = rng.standard_normal((n, n))
        got = pi_action(a, mu).c
        want = pi_action_loops(a, mu.c, q)
        assert np.allclose(got, want, atol=1e-13)


def test_pi_linearity():
    rng = np.random.default_rng(4)
    mu = random_bracket(0, 4, rng)
    la = random_bracket(0, 4, rng)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    lhs = pi_action(a, LieBracket(mu.dims, mu.c + la.c)).c
    rhs = pi_action(a, mu).c + pi_action(a, la).c
    assert np.allclose(lhs, rhs, atol=1e-13)
    lhs = pi_action(a + b, mu).c
    rhs = pi_action(a, mu).c + pi_action(b, mu).c
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_pi_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pi_action(np.eye(4), HEIS)


def test_pi_output_antisymmetric():
    rng = np.random.default_rng(5)
    mu = random_bracket(1, 3, rng)
    out = pi_action(rng.standard_normal((3, 3)), mu).c
    assert np.allclose(out + np.swapaxes(out, 0, 1), 0.0, atol=0.0)


def test_orbit_direction_tangent_to_jacobi_variety():
    # moving along pi(abar)mu leaves the Jacobi residual at O(eps^2)
    rng = np.random.default_rng(6)
    for mu in (HEIS, SU2, random_two_step_nilpotent(5, rng)):
        a = rng.standard_normal((mu.dims.n, mu.dims.n))
        delta = pi_action(a, mu).c
        res = {}
        for eps in (1e-3, 1e-4):
            perturbed = LieBracket(mu.dims, mu.c + eps * delta)
            res[eps] = check_conditions(perturbed).jacobi_residual
        if res[1e-3] < 1e-13:
            continue  # perturbation happened to stay inside the variety
        ratio = res[1e-4] / res[1e-3]
        assert ratio == pytest.approx(1e-2, rel=0.5)


def test_check_conditions_heisenberg_clean():
    rep = check_conditions(HEIS)
    assert rep.jacobi_residual == 0.0
    assert rep.h1_residual == 0.0
    assert rep.h3_residual == 0.0
    assert rep.h4_kernel_dim == 0
    assert rep.passes(1e-12)
    assert jacobi_max_loops(HEIS.c) == 0.0


def test_check_conditions_sphere_with_isotropy():
    mu = get_entry("sphere2_su2").bracket
    rep = check_conditions(mu)
    assert rep.passes(1e-12)
    assert jacobi_max_loops(mu.c) == pytest.approx(0.0, abs=1e-15)


def test_check_conditions_jacobi_violation():
    # mu(e2,e3) = eps*e2 on top of Heisenberg: the Jacobiator on (e1,e2,e3)
    # picks up -eps*e3, so the residual is exactly eps
    c = np.array(HEIS.c)
    c[1, 2, 1] += 0.05
    mu = LieBracket(HEIS.dims, c)
    rep = check_conditions(mu)
    assert rep.jacobi_residual == pytest.approx(0.05, rel=1e-12)
    assert rep.jacobi_residual == pytest.approx(jacobi_max_loops(mu.c), rel=1e-12)
    assert not rep.passes(1e-10)
    assert rep.worst()[0] == "jacobi_residual"


def test_perturbation_along_c010_stays_a_lie_bracket():
    # the resulting algebra is solvable but still a Lie algebra: with d = 3
    # the Jacobiator has a single independent triple and it cancels exactly
    c = np.array(HEIS.c)
    c[0, 1, 0] += 0.05
    mu = LieBracket(HEIS.dims, c)
    assert check_conditions(mu).jacobi_residual == 0.0
    assert jacobi_max_loops(mu.c) == 0.0


@pytest.mark.parametrize("d", range(3, 14))
def test_triple_jacobi_max_equals_full_max(d):
    # J is totally antisymmetric, so i < j < l covers every value up to the
    # order in which its three cyclic terms are added
    rng = np.random.default_rng(40 + d)
    nilpotent = random_two_step_nilpotent(d, rng)
    perturbed = LieBracket(nilpotent.dims, nilpotent.c + 1e-6 * rng.standard_normal((d,) * 3))
    for mu in (random_bracket(0, d, rng), perturbed):
        full = float(np.max(np.abs(jacobiator(mu))))
        got = _residuals(mu.c, 0)[0]
        assert full > 0.0
        assert abs(got - full) <= 2 * np.spacing(full)


def test_triple_jacobi_max_is_zero_without_a_triple():
    mu = random_bracket(0, 2, np.random.default_rng(41))
    assert _residuals(mu.c, 0)[0] == 0.0
    assert np.max(np.abs(jacobiator(mu))) == 0.0


def test_check_conditions_h1_violation():
    # mu(Z, e1) = Z leaks the isotropy action out of p
    mu = LieBracket.from_triples(1, 2, [(0, 1, 0, 1.0)])
    rep = check_conditions(mu)
    assert rep.h1_residual == 1.0


def test_check_conditions_h3_violation():
    # mu(Z, e1) = e1 makes ad Z symmetric rather than skew on p
    mu = LieBracket.from_triples(1, 2, [(0, 1, 1, 1.0)])
    rep = check_conditions(mu)
    assert rep.jacobi_residual == 0.0
    assert rep.h1_residual == 0.0
    assert rep.h3_residual == 2.0


def test_check_conditions_h4_dead_isotropy():
    # center sitting inside k: mu(e1, e2) = Z but mu(Z, .) = 0
    mu = LieBracket.from_triples(1, 2, [(1, 2, 0, 1.0)])
    rep = check_conditions(mu)
    assert rep.h4_kernel_dim == 1
    assert not rep.passes(1e-10)
    assert rep.passes(1e-10, require_h4=False)


def test_h3_residual_equals_per_generator_loop():
    rng = np.random.default_rng(9)
    for q, n in [(1, 2), (2, 3), (3, 4)]:
        mu = random_bracket(q, n, rng)
        want = max(float(np.max(np.abs(mu.c[z, q:, q:] + mu.c[z, q:, q:].T))) for z in range(q))
        assert check_conditions(mu).h3_residual == want


def test_check_conditions_h2_note_passthrough():
    rep = check_conditions(HEIS, h2_note="closed by inspection")
    assert rep.h2_note == "closed by inspection"


def test_transform_by_orthogonal_preserves_norm():
    rng = np.random.default_rng(7)
    mu = random_bracket(0, 4, rng)
    h, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    moved = transform_bracket(mu, h)
    assert bracket_norm(moved) == pytest.approx(bracket_norm(mu), rel=1e-12)


def test_two_step_nilpotent_generator_is_exactly_jacobi():
    rng = np.random.default_rng(8)
    for n in (3, 4, 5, 6):
        mu = random_two_step_nilpotent(n, rng)
        assert check_conditions(mu).jacobi_residual == 0.0


def _well_conditioned(d, rng):
    # orthogonal times a diagonal in [0.5, 2]: condition number at most 4
    h, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return h @ np.diag(rng.uniform(0.5, 2.0, d))


def test_jacobiator_matches_loop_oracle():
    rng = np.random.default_rng(10)
    for q in (0, 1):
        for n in range(2, 6 - q):
            mu = random_bracket(q, n, rng)
            np.testing.assert_allclose(jacobiator(mu), jacobiator_loops(mu.c), rtol=0, atol=1e-13)


def test_transform_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for q in (0, 1):
        for n in range(2, 6 - q):
            mu = random_bracket(q, n, rng)
            g = np.eye(q + n) + 0.3 * rng.standard_normal((q + n, q + n))
            np.testing.assert_allclose(transform_bracket(mu, g).c, transform_loops(mu.c, g), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [9, 13])
def test_kernels_match_einsum_forms(d):
    rng = np.random.default_rng(d)
    mu = random_bracket(0, d, rng)
    g = _well_conditioned(d, rng)
    ginv = np.linalg.inv(g)
    c = mu.c
    want = LieBracket(mu.dims, np.einsum("ai,bj,km,abm->ijk", ginv, ginv, g, c)).c
    got = transform_bracket(mu, g).c
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    want = (
        np.einsum("ijm,mlk->ijlk", c, c)
        + np.einsum("jlm,mik->ijlk", c, c)
        + np.einsum("lim,mjk->ijlk", c, c)
    )
    got = jacobiator(mu)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_transform_is_a_group_action():
    rng = np.random.default_rng(12)
    for q, n in [(0, 4), (1, 3), (0, 6)]:
        d = q + n
        mu = random_bracket(q, n, rng)
        assert np.array_equal(transform_bracket(mu, np.eye(d)).c, mu.c)
        g = _well_conditioned(d, rng)
        h = _well_conditioned(d, rng)
        twice = transform_bracket(transform_bracket(mu, g), h).c
        once = transform_bracket(mu, h @ g).c
        assert np.max(np.abs(twice - once)) <= 1e-12 * np.max(np.abs(once))


def test_transform_keeps_two_step_nilpotent_jacobi():
    rng = np.random.default_rng(13)
    for n in (4, 6, 9, 13):
        mu = random_two_step_nilpotent(n, rng)
        moved = transform_bracket(mu, _well_conditioned(n, rng))
        assert check_conditions(moved).jacobi_residual <= 1e-12 * bracket_norm(mu) ** 2
