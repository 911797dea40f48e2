"""Ricci operator of a homogeneous space from its structure constants.

The operator on p decomposes as

    Ric = M - B/2 - S(ad H|_p),

where M is the moment-map part (a quadratic contraction of the p-projected
bracket), B is the Killing form restricted to p, H is the mean-curvature
vector defined by <H, X> = tr ad X, and S(.) symmetrizes.  A Koszul-formula
oracle (valid for q = 0, i.e. left-invariant metrics on Lie groups) provides
an independent route to the same operator and is the ground truth the
algebraic formula is validated against.

All sums run over ordered index pairs; there are no factor-of-two shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_TOL, LieBracket, check_conditions

__all__ = [
    "RicciData",
    "NotInVarietyError",
    "mean_curvature",
    "killing_form_p",
    "moment_part",
    "ricci_operator",
    "koszul_ricci_oracle",
]


class NotInVarietyError(ValueError):
    """The bracket fails the admissibility conditions beyond tolerance."""


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


def _moment_tensor(c: np.ndarray, q: int) -> np.ndarray:
    mp = c[q:, q:, q:]
    n = mp.shape[0]
    mp2 = mp.reshape(n, n * n)
    mp3 = mp.reshape(n * n, n)
    m = -0.5 * (mp2 @ mp2.T) + 0.25 * (mp3.T @ mp3)
    return 0.5 * (m + m.T)


def _killing_p(c: np.ndarray, q: int) -> np.ndarray:
    d = c.shape[0]
    b = c.reshape(d, -1) @ np.transpose(c, (0, 2, 1)).reshape(d, -1).T
    return b[q:, q:]


def _mean_curvature(c: np.ndarray, q: int) -> np.ndarray:
    return np.trace(c, axis1=1, axis2=2)[q:]


def _ricci_parts(c: np.ndarray, q: int) -> tuple:
    """(ric, scalar, tr ric^2, B, H, M) in the field order of RicciData."""
    n = c.shape[0] - q
    m = _moment_tensor(c, q)
    b = _killing_p(c, q)
    h = _mean_curvature(c, q)
    mp = c[q:, q:, q:]
    ad_h = (h @ mp.reshape(n, n * n)).reshape(n, n).T
    ric = m - 0.5 * b - 0.5 * (ad_h + ad_h.T)
    ric = 0.5 * (ric + ric.T)
    scalar = float(np.trace(ric))
    return ric, scalar, float(np.sum(ric * ric)), b, h, m


def _ricci_from_tensor(c: np.ndarray, q: int) -> tuple[np.ndarray, float, float]:
    """Hot path: (ric, scalar, tr ric^2) from the raw tensor."""
    return _ricci_parts(c, q)[:3]


def mean_curvature(mu: LieBracket) -> np.ndarray:
    """The vector H in p with <H, X> = tr(ad X), trace taken over all of g.

    Vanishes exactly on unimodular algebras.
    """
    return _mean_curvature(mu.c, mu.dims.q)


def killing_form_p(mu: LieBracket) -> np.ndarray:
    """B[x, y] = tr(ad X ad Y) for X, Y in the p-basis, ad acting on all of g."""
    return _killing_p(mu.c, mu.dims.q)


def moment_part(mu: LieBracket) -> np.ndarray:
    """Quadratic moment-map contribution M to the Ricci operator.

    With mu_p the p-projection of mu restricted to p x p:

        M[x,y] = -1/2 sum_{i,j} <mu_p(X, e_i), e_j><mu_p(Y, e_i), e_j>
                 +1/4 sum_{i,j} <mu_p(e_i, e_j), X><mu_p(e_i, e_j), Y>
    """
    return _moment_tensor(mu.c, mu.dims.q)


def ricci_operator(mu: LieBracket, check: bool = True, tol: float = DEFAULT_TOL) -> RicciData:
    """Ricci operator, scalar curvature and tr Ric^2 of a bracket.

    Args:
        mu: an admissible bracket.
        check: verify the admissibility conditions first (skip only on a hot
            path that monitors drift separately).
        tol: residual tolerance for the membership check.

    Raises:
        NotInVarietyError: when `check` is set and a residual exceeds `tol`.
    """
    if check:
        report = check_conditions(mu, tol=tol)
        if not report.passes(tol):
            name, value = report.worst()
            raise NotInVarietyError(
                f"bracket fails admissibility: {name} = {value:.3e} (tol {tol:.1e})"
            )
    return RicciData(*_ricci_parts(mu.c, mu.dims.q))


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
        killing_p=_killing_p(mu.c, 0),
        mean_curvature=_mean_curvature(mu.c, 0),
        moment_part=_moment_tensor(mu.c, 0),
        riem_sq=float(np.sum(riem * riem)),
    )
