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
from bracketflow.curvature import _pp_mask, _ricci_from_tensor

from oracles import killing_p_loops, mean_curvature_loops, moment_part_loops, ricci_assembled_loops

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


@pytest.mark.parametrize("q, n", [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (2, 3), (3, 4)])
def test_fused_kernel_matches_assembled_loops(q, n):
    mu = random_bracket(q, n, np.random.default_rng(100 + 10 * q + n))
    assert np.max(np.abs(mean_curvature(mu))) > 0.1  # non-unimodular: the ad H term is live
    ric, scalar, trsq = _ricci_from_tensor(mu.c, q)
    ref = ricci_assembled_loops(mu.c, q)
    assert np.max(np.abs(ric - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(ric, ric.T)
    assert scalar == ric.trace()
    assert trsq == pytest.approx(np.sum(ref * ref), rel=1e-12)


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


def test_pp_mask_is_cached_and_read_only():
    mask = _pp_mask(5, 2)
    assert mask is _pp_mask(5, 2)
    in_p = np.arange(5) >= 2
    assert np.array_equal(mask.reshape(5, 5), np.outer(in_p, in_p))
    with pytest.raises(ValueError, match="read-only"):
        mask[0] = 1.0


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
