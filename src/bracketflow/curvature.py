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
read.  It applies the Ricci half of a stacked table (below) or, when that
table is too large, the fused GEMM kernel `_ricci_gemm`, which gathers its
operands through a read-only index plan, built once per (q, n) by
`_ricci_plan`, and makes one matrix product for M - B/2.  Every table is
built from the GEMM kernel.

Over the m = d * d(d-1)/2 entries c[i, j, k] with i < j
(`algebra._half_indices`, the one encoding of that half), Ric is a quadratic
form and the bracket flow's RHS -pi(diag(0, Ric)) mu a bilinear form in Ric
and the same entries.  `_rhs_table` stacks both coefficient tables, [Q; P],
on a support S of those entries, so the whole RHS on V_S
(`flow._default_rhs_tensor`) is one matrix-vector product and two small
contractions, and Ric alone is the Q half.  A table is built lazily, once
per (d, q, S), by polarizing the GEMM kernel and `algebra._pi_tensor` on
the mirrored basis E_a of S.  Its coefficients are exact, and there is no
second Ricci or pi formula.  One rule picks a table or the GEMM kernels for
every caller: a table is used when it holds at most TABLE_MAX_ENTRIES
entries, the measured crossover.  Two tables are used:

* the bracket flow's (`_flow_table`): S is the support of the initial
  bracket, grown until it is flow-invariant; a two-step nilpotent bracket
  at n = 13 steps on 30 entries;
* `_ricci_from_tensor`'s (`_ricci_table`): S is the whole half, since the
  metric flow's pushed tensors are dense; it fits for every q at d <= 5,
  and at d = 6 only for q >= 3.

All sums run over ordered index pairs; there are no factor-of-two shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .algebra import DEFAULT_TOL, LieBracket, NotInVarietyError, _from_half, _half_indices, _pi_tensor, check_conditions

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
    """Read-only gather plan of `_ricci_gemm`, shared by every tensor with this (d, q).

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


# Largest stacked table, in float64 entries, that is used (`_closed_table`):
# the bracket flow's on its support and `_ricci_from_tensor`'s on the whole
# half.  Where the table is larger, both use the GEMM kernels.  A table
# product reads the whole table once per call, while the GEMM cost follows
# d, so the crossover is a table size.  Measured per RHS evaluation (min of
# 7 x 2000 calls, 1 BLAS thread, 2-CPU host), tabulated against GEMM, on
# two-step nilpotent supports (n, center) and dense moved brackets:
#   (6, 3)  m' = 9,    2.1k entries:   5.8 against 27.5 us
#   (9, 6)  m' = 18,    18k entries:  10.4 against 36.9 us
#   dense n = 5, m' = 50, 75k:        21.1 against 27.6 us
#   (13, 10) m' = 30,  112k entries:  31.2 against 65.2 us
#   (9, 3)  m' = 45,   113k entries:  29.6 against 36.8 us
#   (10, 5) m' = 50,   155k entries:  42.4 against 42.0 us
#   (10, 4) m' = 60,   230k entries:  62.8 against 41.2 us
#   dense n = 6, m' = 90, 340k:      128.0 against 28.9 us
# and per Ricci matrix alone on the whole half (min of 5 x 2000 calls), the
# Q half of the table against the GEMM kernel:
#   d = 5, q = 0,   75k entries:  12.8 against 16.9 us
#   d = 5, q = 1,   50k entries:  10.3 against 17.1 us
#   d = 5, q = 2,   30k entries:   8.1 against 16.7 us
#   d = 6, q = 3,   97k entries:  13.5 against 17.0 us
# 2^17 entries (1 MiB) lies between the last clear win and the break-even.
TABLE_MAX_ENTRIES = 2**17


@dataclass(frozen=True)
class _StackedTable:
    """Ric and the bracket flow's RHS as one stacked table on a support S of the i < j half.

    Attributes:
        support: the m' positions in the i < j half (`algebra._half_indices`)
            that the state holds, sorted.
        upper: their flat tensor indices; the state of c is u = c.ravel()[upper].
        mirror: the flat indices of their mirrors (j, i, k), where c holds -u
            (`algebra._half_indices`).
        stack: [Q; P] as a (2 * rows * m', m') matrix, read-only.
        rows: Ricci rows in each half: the entries of Ric's upper triangle
            that are not identically 0 on V_S, plus one zero row when some
            entry is.
        sym: (n, n) index into the rows of each entry of Ric, so Ric = r[sym];
            every entry that vanishes on V_S reads the zero row.
        grown: S together with every half entry that the RHS on V_S reaches;
            S is flow-invariant exactly when grown == support.
    """

    support: tuple
    upper: np.ndarray
    mirror: np.ndarray
    stack: np.ndarray
    rows: int
    sym: np.ndarray
    grown: tuple


@lru_cache(maxsize=32)
def _rhs_table(d: int, q: int, support: tuple) -> _StackedTable:
    """The stacked table of Ric and the bracket flow's RHS on the support S.

    With u = c.ravel()[upper] the entries of c on S and r the table's Ricci
    rows, the table stacks two coefficient arrays of shape (rows, m', m'):

        r[k] = sum_{a,b} Q[k, a, b] u_a u_b,
        (-pi(diag(0, Ric)) c).ravel()[upper] = sum_{k,a} r[k] P[k, :, a] u_a,

    for every antisymmetric c supported on S, if S is flow-invariant.  So
    with s = (stack @ u).reshape(2, rows, m') the RHS is (r = s[0] @ u) @
    s[1], in the layout of u.  Q is the polar form of the GEMM kernel on the
    mirrored basis E_a (a in S; +1 at upper[a], -1 at mirror[a]),
    Q[:, a, a] = Ric(E_a) and

        Q[:, a, b] = (Ric(E_a + E_b) - Ric(E_a) - Ric(E_b)) / 2;

    the rows of Q that are 0 on all of S are dropped.  P[k, :, a] is the
    half of -pi(diag(0, F_k)) E_a from `algebra._pi_tensor` on S, F_k the
    symmetric unit matrix of Ricci row k; its entries outside S give
    `grown`.  With +-1 basis entries and power-of-two weights every
    coefficient is exact.  On the whole half this is the table `_ricci_from_tensor` applies (`_ricci_table`).  The build
    makes m'(m'+1)/2 + m' GEMM-kernel calls and about rows * m' pi calls,
    once per support: 3, 17 and 86 ms for the supports of the default
    two-step nilpotent brackets at n = 6, 9 and 13 (m' = 9, 18 and 30), at
    most 1 ms for a catalog entry and about 43 ms for the whole half at
    d = 5, q = 0, on a 2-CPU host.  Every array is read-only.
    """
    half, mirror = _half_indices(d)
    sel = np.array(support, dtype=np.intp)
    m, n = sel.size, d - q
    iu = np.triu_indices(n)
    e = np.moveaxis(_from_half(np.eye(m), half[sel], mirror[sel], d), -1, 0)
    q_form = np.empty((len(iu[0]), m, m))
    diag = [_ricci_gemm(e[a], q)[iu] for a in range(m)]
    for a in range(m):
        q_form[:, a, a] = diag[a]
        for b in range(a + 1, m):
            pair = _ricci_gemm(e[a] + e[b], q)[iu]
            q_form[:, a, b] = q_form[:, b, a] = (pair - diag[a] - diag[b]) / 2
    active = np.flatnonzero(q_form.reshape(len(iu[0]), -1).any(axis=1))
    rows = active.size + (active.size < len(iu[0]))
    table = np.zeros((2, rows, m, m))
    table[0, : active.size] = q_form[active]
    reach = np.zeros(half.size, dtype=bool)
    reach[sel] = True
    for r, k in enumerate(active):
        i, j = q + iu[0][k], q + iu[1][k]
        unit = np.zeros((d, d))
        unit[i, j] = unit[j, i] = 1.0
        for a in range(m):
            out = -_pi_tensor(unit, e[a]).ravel()[half]
            reach |= out != 0
            table[1, r, :, a] = out[sel]
    sym = np.full((n, n), rows - 1, dtype=np.intp)
    sym[iu[0][active], iu[1][active]] = sym[iu[1][active], iu[0][active]] = np.arange(active.size)
    upper, mirror, stack = half[sel], mirror[sel], table.reshape(2 * rows * m, m)
    for arr in (upper, mirror, stack, sym):
        arr.setflags(write=False)
    return _StackedTable(support, upper, mirror, stack, rows, sym, tuple(np.flatnonzero(reach).tolist()))


def _table_entries_at_least(d: int, q: int, support: tuple) -> int:
    """A lower bound on the size of `_rhs_table(d, q, support)`, at the cost of one GEMM-kernel call.

    Ric at a point of V_S with small integer entries is exact (integer
    products, power-of-two weights), so every entry of Ric that is nonzero
    there is a row the table must hold.
    """
    half, mirror = _half_indices(d)
    sel = np.array(support, dtype=np.intp)
    point = np.random.default_rng(0).integers(1, 8, sel.size).astype(float)
    ric = _ricci_gemm(_from_half(point, half[sel], mirror[sel], d), q)
    return 2 * int(np.count_nonzero(ric[np.triu_indices(d - q)])) * sel.size**2


@lru_cache(maxsize=32)
def _closed_table(d: int, q: int, start: tuple) -> _StackedTable | None:
    # The one table-or-GEMM rule, for the flow's support and the whole half
    # alike: grow `start` to the least flow-invariant support that holds it;
    # None as soon as its table is over TABLE_MAX_ENTRIES, since growing the
    # support only adds entries.
    support = start
    while _table_entries_at_least(d, q, support) <= TABLE_MAX_ENTRIES:
        table = _rhs_table(d, q, support)
        if table.stack.size > TABLE_MAX_ENTRIES:
            return None
        if table.grown == support:
            return table
        support = table.grown
    return None


def _flow_table(mu: LieBracket) -> _StackedTable | None:
    """The stacked table the bracket flow of mu steps on, or None for the GEMM kernels.

    The support is the i < j entries of mu that are nonzero, grown until
    the RHS maps V_S into itself.  The flow then never leaves V_S: entries
    outside S stay exactly 0.  A support whose table exceeds
    TABLE_MAX_ENTRIES gives None.
    """
    d = mu.dims.d
    start = tuple(np.flatnonzero(mu.c.ravel()[_half_indices(d)[0]]).tolist())
    return _closed_table(d, mu.dims.q, start)


@cache
def _ricci_table(d: int, q: int) -> _StackedTable | None:
    # The whole half's table when TABLE_MAX_ENTRIES admits it, else None.
    # Cached per (d, q): `_closed_table` would hash the support tuple, 1014
    # entries at d = 13, on every metric-flow call.
    return _closed_table(d, q, tuple(range(_half_indices(d)[0].size)))


def _ricci_from_tensor(c: np.ndarray, q: int) -> np.ndarray:
    """Ricci matrix of the raw tensor: the metric flow's hot path, and the bracket flow's on the GEMM path.

    Where the whole half's table fits (`_ricci_table`), it applies the table's
    Q half, two matrix-vector products that read the i < j half of c only;
    elsewhere the GEMM kernel `_ricci_gemm`.  Both return an exactly
    symmetric ric.
    """
    t = _ricci_table(c.shape[0], q)
    if t is None:
        return _ricci_gemm(c, q)
    u = c.ravel()[t.upper]
    return np.dot(np.dot(t.stack[: t.rows * u.size], u).reshape(t.rows, -1), u)[t.sym]


def _ricci_gemm(c: np.ndarray, q: int) -> np.ndarray:
    """Ricci matrix of the raw tensor by the fused GEMM kernel, the one every table is built from.

    One gather through `_ricci_plan` and one GEMM give the moment term, the
    Killing form and the Gram matrix of the p-part together:

        G = [A1 | A3] @ [-(P*A1 + A2)/2 | A3/4]^T
          = -1/2 (sum_{j,k in p} c[x,j,k] c[y,j,k] + sum_{j,k in g} c[x,j,k] c[y,k,j])
            + 1/4 sum_{i,j in p} c[i,j,x] c[i,j,y]
          = M - B/2.

    With H[x] = sum_j c[q+x, j, j] and adH[j, k] = sum_x H[x] c[q+x, j, k] on
    p, both read off the free view rows[x, (j, k)] = c[q+x, j, k], and S the
    symmetrisation,

        Ric = S(G - adH) = M - B/2 - S(ad H|_p).
    """
    d = c.shape[0]
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
