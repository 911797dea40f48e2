"""Ricci operator of a homogeneous space from its structure constants.

The operator on p decomposes as

    Ric = M - B/2 - S(ad H|_p),

where M is the moment-map part (a quadratic contraction of the p-projected
bracket), B is the Killing form restricted to p, H is the mean-curvature
vector defined by <H, X> = tr ad X, and S(.) symmetrizes.  A Koszul-formula
oracle (valid for q = 0, i.e. left-invariant metrics on Lie groups) provides
an independent route to the same operator and is the ground truth the
algebraic formula is validated against.

Both flows assemble Ric with one fused kernel, `_ricci_from_tensor`; the
bracket flow's monitor reads it off the RHS evaluation it already makes.

All sums run over ordered index pairs; there are no factor-of-two shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import DEFAULT_TOL, LieBracket, NotInVarietyError, check_conditions

__all__ = [
    "RicciData",
    "NotInVarietyError",
    "mean_curvature",
    "killing_form_p",
    "moment_part",
    "ricci_operator",
    "koszul_ricci_oracle",
]


@dataclass(frozen=True)
class RicciData:
    """Ricci operator on p together with its constituents.

    Attributes:
        ric: n x n symmetric matrix of the Ricci operator.
        scalar: scalar curvature, tr(ric).
        ric_sq_trace: tr(ric^2), the quantity driving the scalar-curvature
            evolution along the flow.
        killing_p: Killing form restricted to p.
        mean_curvature: the vector H in p.
        moment_part: the moment-map contribution M.
        riem_sq: |Riem|^2 when computed by the Koszul oracle, else None.
    """

    ric: np.ndarray
    scalar: float
    ric_sq_trace: float
    killing_p: np.ndarray
    mean_curvature: np.ndarray
    moment_part: np.ndarray
    riem_sq: float | None = None


@cache
def _pp_mask(d: int, q: int) -> np.ndarray:
    # (d*d,) read-only 0/1 weights of the index pairs (j, k) with j, k both in p
    mask = np.pad(np.ones((d - q, d - q)), (q, 0)).ravel()
    mask.setflags(write=False)
    return mask


def _ricci_from_tensor(c: np.ndarray, q: int) -> tuple[np.ndarray, float, float]:
    """(ric, scalar, tr ric^2) from the raw tensor: the hot path of both flows.

    rows[x, (j, k)] = c[q+x, j, k] runs over every pair of g, swapped is rows
    with j and k exchanged, and P weighs the pairs in p x p by 1, all others
    by 0.  One GEMM gives the moment term and the Killing form together:

        X[x, y] = (rows @ (rows * P + swapped).T)[x, y]
                = sum_{j,k in p} c[x,j,k] c[y,j,k] + sum_{j,k in g} c[x,j,k] c[y,k,j].

    With mp3[(i, j), x] = c[i, j, x] on p, H[x] = sum_j c[q+x, j, j],
    adH[j, k] = sum_x H[x] c[q+x, j, k] on p and S the symmetrisation,

        Ric = S(1/4 mp3^T mp3 - X/2 - adH) = M - B/2 - S(ad H|_p).
    """
    d = c.shape[0]
    n = d - q
    rows = c[q:].reshape(n, d * d)
    swapped = c[q:].transpose(0, 2, 1).reshape(n, d * d)
    x = rows @ (rows * _pp_mask(d, q) + swapped).T
    h = rows[:, :: d + 1].sum(1)
    ad_h = (h @ rows).reshape(d, d)[q:, q:]
    mp3 = c[q:, q:, q:].reshape(n * n, n)
    a = 0.25 * (mp3.T @ mp3) - 0.5 * x - ad_h
    ric = 0.5 * (a + a.T)
    return ric, float(ric.trace()), float(np.vdot(ric, ric))


def mean_curvature(mu: LieBracket) -> np.ndarray:
    """The vector H in p with <H, X> = tr(ad X), trace taken over all of g.

    Vanishes exactly on unimodular algebras.
    """
    return np.trace(mu.c, axis1=1, axis2=2)[mu.dims.q :]


def killing_form_p(mu: LieBracket) -> np.ndarray:
    """B[x, y] = tr(ad X ad Y) for X, Y in the p-basis, ad acting on all of g."""
    c, n = mu.c[mu.dims.q :], mu.dims.n
    return c.reshape(n, -1) @ np.transpose(c, (0, 2, 1)).reshape(n, -1).T


def moment_part(mu: LieBracket) -> np.ndarray:
    """Quadratic moment-map contribution M to the Ricci operator.

    With mu_p the p-projection of mu restricted to p x p:

        M[x,y] = -1/2 sum_{i,j} <mu_p(X, e_i), e_j><mu_p(Y, e_i), e_j>
                 +1/4 sum_{i,j} <mu_p(e_i, e_j), X><mu_p(e_i, e_j), Y>
    """
    mp = mu.c[mu.dims.q :, mu.dims.q :, mu.dims.q :]
    mp2, mp3 = mp.reshape(mu.dims.n, -1), mp.reshape(-1, mu.dims.n)
    m = -0.5 * (mp2 @ mp2.T) + 0.25 * (mp3.T @ mp3)
    return 0.5 * (m + m.T)


def ricci_operator(mu: LieBracket, check: bool = True) -> RicciData:
    """Ricci operator, scalar curvature and tr Ric^2 of a bracket.

    Args:
        mu: an admissible bracket.
        check: verify the admissibility conditions first (skip only on a hot
            path that monitors drift separately).

    Raises:
        NotInVarietyError: when `check` is set and a residual exceeds
            `algebra.DEFAULT_TOL`, the default membership tolerance.
    """
    if check:
        check_conditions(mu).require(DEFAULT_TOL)
    ric, scalar, ric_sq = _ricci_from_tensor(mu.c, mu.dims.q)
    return RicciData(ric, scalar, ric_sq, killing_form_p(mu), mean_curvature(mu), moment_part(mu))


def _koszul_pieces(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 2<nabla_{e_i} e_j, e_k> = c[i,j,k] - c[j,k,i] + c[k,i,j]
    gamma = 0.5 * (c - np.transpose(c, (2, 0, 1)) + np.transpose(c, (1, 2, 0)))
    riem = (
        np.einsum("jls,ism->ijlm", gamma, gamma)
        - np.einsum("ils,jsm->ijlm", gamma, gamma)
        - np.einsum("ijs,slm->ijlm", c, gamma)
    )
    return gamma, riem


def koszul_ricci_oracle(mu: LieBracket) -> RicciData:
    """Ricci data via Levi-Civita connection coefficients (q = 0 only).

    Builds the connection from the Koszul formula in the orthonormal frame,
    assembles the full curvature tensor R(X,Y)Z = [nabla_X, nabla_Y]Z -
    nabla_{mu(X,Y)}Z, and contracts.  Entirely independent of the algebraic
    M - B/2 - S(ad H) route; also reports |Riem|^2 for singularity-type
    diagnostics.

    Raises:
        ValueError: if the bracket has isotropy (q > 0), where no invariant
            orthonormal-frame connection formula of this shape applies.
    """
    if mu.dims.q != 0:
        raise ValueError("Koszul oracle requires q = 0 (left-invariant metric on a Lie group)")
    _, riem = _koszul_pieces(mu.c)
    ric = np.einsum("ijli->jl", riem)
    ric = 0.5 * (ric + ric.T)
    scalar = float(np.trace(ric))
    return RicciData(
        ric=ric,
        scalar=scalar,
        ric_sq_trace=float(np.sum(ric * ric)),
        killing_p=killing_form_p(mu),
        mean_curvature=mean_curvature(mu),
        moment_part=moment_part(mu),
        riem_sq=float(np.sum(riem * riem)),
    )
