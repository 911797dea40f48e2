"""Ricci operator of a homogeneous space from its structure constants.

The operator on p decomposes as

    Ric = M - B/2 - S(ad H|_p),

where M is the moment-map part (a quadratic contraction of the p-projected
bracket), B is the Killing form restricted to p, H is the mean-curvature
vector defined by <H, X> = tr ad X, and S(.) symmetrizes.  A Koszul-formula
oracle (valid for q = 0, i.e. left-invariant metrics on Lie groups) provides
an independent route to the same operator and is the ground truth the
algebraic formula is validated against.

Both flows assemble Ric with one function, `_ricci_from_tensor`, which
returns the matrix only: R = tr Ric and tr Ric^2 are computed where they are
read.  It has two paths, chosen from d = q + n:

* d >= 5: a fused GEMM kernel.  It gathers its operands through a read-only
  index plan, built once per (q, n) by `_ricci_plan`, and makes one matrix
  product for M - B/2.
* d <= PLAN_MAX_D = 4 (every catalog entry): Ric is a quadratic form in the
  m = d * d(d-1)/2 entries c[i, j, k] with i < j, and the bracket flow's
  RHS -pi(diag(0, Ric)) mu is a bilinear form in Ric and the same entries.
  `_rhs_table` stacks both coefficient tables, [Q; P], so the whole RHS
  (`flow._default_rhs_tensor`) is one matrix-vector product and two small
  contractions, and Ric alone is the Q half.  The table is built lazily,
  once per (q, n), by polarizing the GEMM kernel and `algebra._pi_tensor`
  on the mirrored basis E_a of `algebra._mirror_basis`.  Its coefficients
  are exact, and there is no second Ricci or pi formula.  The bound is
  where the tabulated RHS stops paying (see `algebra.PLAN_MAX_D`).

All sums run over ordered index pairs; there are no factor-of-two shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import DEFAULT_TOL, PLAN_MAX_D, LieBracket, NotInVarietyError, _mirror_basis, _pi_tensor, check_conditions

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
def _ricci_plan(d: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only gather plan of `_ricci_from_tensor`, shared by every tensor with this (d, q).

    Returns (idx, w).  idx has shape (2, n, d*d + n*n) and holds flat indices
    into c, block by block (x, i, j in p; j, k in g):

        idx[0] = [A1 | A3],  idx[1] = [A2 | A3],
        A1[x, (j, k)] = c[q+x, j, k]     -> (q+x) d^2 + j d + k
        A2[x, (j, k)] = c[q+x, k, j]     -> (q+x) d^2 + k d + j
        A3[x, (i, j)] = c[q+i, q+j, q+x] -> (q+i) d^2 + (q+j) d + q+x

    w, of the same shape, weighs them so that the weighted sum of the two
    gathers is [-(P*A1 + A2)/2 | A3/4]: -P/2 and -1/2 on the A1 and A2
    blocks, where P is 1 on the pairs (j, k) in p x p and 0 elsewhere, and
    1/8 on each copy of A3.  Every weight is a power of two or 0, so the sum
    rounds exactly like (P*A1 + A2) itself.
    """
    n = d - q
    flat = np.arange(d**3).reshape(d, d, d)
    a3 = flat[q:, q:, q:].reshape(n * n, n).T
    idx = np.stack([
        np.hstack([flat[q:].reshape(n, d * d), a3]),
        np.hstack([flat[q:].transpose(0, 2, 1).reshape(n, d * d), a3]),
    ])
    in_p = np.arange(d) >= q
    w = np.empty(idx.shape)
    w[0, :, : d * d] = -0.5 * np.outer(in_p, in_p).ravel()
    w[1, :, : d * d] = -0.5
    w[:, :, d * d :] = 0.125
    idx.setflags(write=False)
    w.setflags(write=False)
    return idx, w


@cache
def _rhs_table(d: int, q: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]:
    """(upper, table, rows, sym, basis): Ric and the bracket flow's RHS as one stacked table.

    With (upper, basis) from `algebra._mirror_basis(d)`, u = c.ravel()[upper]
    the i < j half of c, and r the rows = n(n+1)/2 upper-triangle entries of
    Ric (Ric = r[sym]), the table stacks two coefficient arrays of shape
    (rows, m, m):

        r[k] = sum_{a,b} Q[k, a, b] u_a u_b,
        -pi(diag(0, Ric)) c = (sum_{k,a} r[k] P[k, :, a] u_a) @ basis,

    for every antisymmetric c; the @ basis mirrors the half back, exactly
    antisymmetric.  `table` is [Q; P] as a (2 * rows * m, m) matrix, so
    with s = (table @ u).reshape(2, rows, m) the RHS is (s[1] contracted
    with r = s[0] @ u) @ basis.  Q is the polar form of the GEMM kernel on
    the mirrored basis E_a, Q[:, a, a] = Ric(E_a) and

        Q[:, a, b] = (Ric(E_a + E_b) - Ric(E_a) - Ric(E_b)) / 2,

    and P[k, :, a] is the i < j half of -pi(diag(0, F_k)) E_a from
    `algebra._pi_tensor`, F_k the symmetric unit matrix of entry k.  With
    +-1 basis entries and power-of-two weights every coefficient is exact.
    Built once per (d, q); every array is read-only.  Meant for d <=
    PLAN_MAX_D, where m = d * d(d-1)/2 stays small.
    """
    upper, basis = _mirror_basis(d)
    n, m = d - q, upper.size
    iu = np.triu_indices(n)
    rows = len(iu[0])
    e = basis.reshape(m, d, d, d)
    table = np.empty((2, rows, m, m))
    diag = [_ricci_from_tensor(e[a], q, tabulated=False)[iu] for a in range(m)]
    for a in range(m):
        table[0, :, a, a] = diag[a]
        for b in range(a + 1, m):
            pair = _ricci_from_tensor(e[a] + e[b], q, tabulated=False)[iu]
            table[0, :, a, b] = table[0, :, b, a] = (pair - diag[a] - diag[b]) / 2
    for k, (i, j) in enumerate(zip(*iu)):
        unit = np.zeros((d, d))
        unit[q + i, q + j] = unit[q + j, q + i] = 1.0
        for a in range(m):
            table[1, k, :, a] = -_pi_tensor(unit, e[a]).ravel()[upper]
    sym = np.empty((n, n), dtype=np.intp)
    sym[iu] = sym[iu[::-1]] = np.arange(rows)
    table = table.reshape(2 * rows * m, m)
    table.setflags(write=False)
    sym.setflags(write=False)
    return upper, table, rows, sym, basis


def _ricci_from_tensor(c: np.ndarray, q: int, tabulated: bool = True) -> np.ndarray:
    """Ricci matrix of the raw tensor: the metric flow's hot path, and the bracket flow's at d >= 5.

    At d <= PLAN_MAX_D it applies the Q half of `_rhs_table(d, q)`, two
    matrix-vector products that read the i < j half of c only.  At
    larger d, and with `tabulated=False` (the route the table is built
    from), one gather through `_ricci_plan` and one GEMM give the moment
    term, the Killing form and the Gram matrix of the p-part together:

        G = [A1 | A3] @ [-(P*A1 + A2)/2 | A3/4]^T
          = -1/2 (sum_{j,k in p} c[x,j,k] c[y,j,k] + sum_{j,k in g} c[x,j,k] c[y,k,j])
            + 1/4 sum_{i,j in p} c[i,j,x] c[i,j,y]
          = M - B/2.

    With H[x] = sum_j c[q+x, j, j] and adH[j, k] = sum_x H[x] c[q+x, j, k] on
    p, both read off the free view rows[x, (j, k)] = c[q+x, j, k], and S the
    symmetrisation,

        Ric = S(G - adH) = M - B/2 - S(ad H|_p).

    Both paths return an exactly symmetric ric.
    """
    d = c.shape[0]
    if tabulated and d <= PLAN_MAX_D:
        upper, table, rows, sym, _ = _rhs_table(d, q)
        u = c.ravel()[upper]
        return np.dot(np.dot(table[: rows * u.size], u).reshape(rows, -1), u)[sym]
    idx, w = _ricci_plan(d, q)
    gathered = c.ravel()[idx]
    weighted = gathered * w
    rows = c[q:].reshape(d - q, d * d)
    h = rows[:, :: d + 1].sum(1)
    ad_h = (h @ rows).reshape(d, d)[q:, q:]
    a = gathered[0] @ (weighted[0] + weighted[1]).T - ad_h
    return 0.5 * (a + a.T)


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
    ric = _ricci_from_tensor(mu.c, mu.dims.q)
    return RicciData(
        ric, float(ric.trace()), float(np.vdot(ric, ric)), killing_form_p(mu), mean_curvature(mu), moment_part(mu)
    )


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
