"""Ricci operator of a homogeneous space from its structure constants.

The operator on p decomposes as

    Ric = M - B/2 - S(ad H|_p),

where M is the moment-map part (a quadratic contraction of the p-projected
bracket), B is the Killing form restricted to p, H is the mean-curvature
vector defined by <H, X> = tr ad X, and S(.) symmetrizes.  A Koszul-formula
oracle (valid for q = 0, i.e. left-invariant metrics on Lie groups) provides
an independent route to the same operator and is the ground truth the
algebraic formula is validated against.

`ricci_operator` reads Ric of a lone tensor through the fused GEMM kernel
`_ricci_gemm`, which gathers its operands through a read-only index plan,
built once per (q, n) by `_ricci_plan`, and makes one matrix product for
M - B/2.  A flow run reads Ric off the stacked table (below) of its
support, built once per run.  Both return the matrix only: R = tr Ric and
tr Ric^2 are computed where they are read.

Over the m = d * d(d-1)/2 entries c[i, j, k] with i < j
(`algebra._half_indices`, the one encoding of that half), Ric is a quadratic
form and the bracket flow's RHS -pi(diag(0, Ric)) mu a bilinear form in Ric
and the same entries.  `_rhs_table` holds both coefficient tables, [Q; P],
on a support S of those entries, and Ric alone is the Q half.  A table is
built lazily, once per (d, q, S), as the lists of its nonzero coefficients
(`_SparseForm`), written down from the kernels' own index arithmetic: Q
from the gather plan and power-of-two weights of `_ricci_plan` and the ad H
term, P from the three terms of `algebra._pi_tensor`.  Every flat index of
c is mapped to +-(its position in the state) on S, or dropped where c is 0
on V_S (`_support_slots`), and the two factors of a product are paired only
where both are live (`_paired`), so the build costs the terms on S, not
the tensor: 2 ms for a two-step nilpotent bracket at n = 13, 27 ms for the
whole half at d = 8, where polarizing the kernels took 122 ms and 1.2 s.
Its coefficients are exact, and there is no second Ricci or pi formula.  A
table of at most DENSE_TABLE_MAX_ENTRIES entries, read off the size of the
dense [Q; P], is also kept as that dense stack, and the whole RHS on V_S
(`flow._default_rhs_tensor`) is one matrix-vector product, written into a
buffer each run owns, and two small contractions on that buffer's views; a
larger one, mostly zeros, is applied through its coefficient lists: one
gather of the state through the table's read-only `gather` index, then two
bincounts.  The crossover is measured.  Each flow run holds the table of
its support, and there is no rule on its size:

* the bracket flow's (`_flow_table`): S is the support of the initial
  bracket, grown until it is flow-invariant; a two-step nilpotent bracket
  at n = 13 steps on 30 entries, through 675 nonzero coefficients of a
  111,600-entry table.  Every support has one, so the flow has one state
  layout;
* the metric flow's: S is the support S_nu that every pushed bracket
  L.mu0 of the run stays on, exactly (`metric_flow._pushed_support`); the
  run's kernel pushes mu0 straight into the state u on S_nu
  (`metric_flow._PushKernel`), and `_ricci_from_state` applies the
  table's Q half to u.  From the identity
  metric, a two-step nilpotent bracket at n = 5 and 6 pushes onto 6 and 9
  of its 50 and 90 entries, the bracket flow's own support, and at n = 13
  onto 30 of 1014.  From a dense metric most brackets reach the whole
  half, whose Q half costs more per call than the GEMM kernel from d = 7
  on: 20 against 14 us at d = 7, 331 against 32 us at d = 13, and 6.7
  against 13 us at d = 5 (min of 7 x 2000 calls, 1 BLAS thread, 2-CPU
  host).  The bracket flow pays the same on its dense supports.

A table holds Ric and the RHS only.  The bracket flow's drift check reads
the admissibility residuals on the same support from a second cache keyed
the same way, `_residual_forms`: the Jacobiator's components, written down
from `algebra._triple_plan` with the same exact arithmetic (`_quadratic_form`)
and kept as their nonzero coefficients, and the linear h1 and h3 rows, each
with the rows that vanish on V_S dropped.  Only pairs of support entries
that chain give a Jacobi term, so a two-step nilpotent support, where none
does, gets no form at all.

All sums run over ordered index pairs; there are no factor-of-two shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    LieBracket,
    NotInVarietyError,
    _from_half,
    _half_indices,
    _isotropy_parts,
    _triple_plan,
    check_conditions,
)

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
    """Ricci operator on p and the curvature scalars read off it.

    Attributes:
        ric: n x n symmetric matrix of the Ricci operator.
        scalar: scalar curvature, tr(ric).
        ric_sq_trace: tr(ric^2), the quantity driving the scalar-curvature
            evolution along the flow.
        riem_sq: |Riem|^2 when computed by the Koszul oracle, else None.

    The constituents of Ric = M - B/2 - S(ad H|_p) are the functions
    `moment_part`, `killing_form_p` and `mean_curvature`.
    """

    ric: np.ndarray
    scalar: float
    ric_sq_trace: float
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


# Largest table, in dense entries, that is applied as the dense product of
# its stack.  A larger one is applied through its nonzero coefficients
# (`_SparseForm`), one bincount for Ric's rows and one for the RHS, and no
# dense array is built.  The product reads every entry, the lists only the
# nonzeros (0.6% of the table at n = 13), but at a few more numpy calls.
# Measured per call with the RHS kernel of `flow._default_rhs_tensor` (the
# dense product into a run's buffer, the sparse one gather of the state),
# dense against sparse, for the RHS and for Ricci alone (min of 3 runs of 15
# alternations of 2000 calls, 1 BLAS thread, 2-CPU shared host, whose runs
# spread by up to 1.7x); a nilpotent (n, z) support is that of a two-step
# nilpotent bracket with a z-dimensional centre:
#                             entries  nonzeros  RHS (us)     Ricci (us)
#   nilpotent (6, 3)            2,106      108    3.4 /  5.9   2.8 / 3.1
#   nilpotent (8, 5)            9,900      225    5.7 /  6.7   4.2 / 3.4
#   whole half d = 4, q = 0    11,520      450    4.7 /  8.5   3.7 / 4.5
#   nilpotent (9, 6)           18,144      297    7.1 /  7.3   5.0 / 3.5
#   whole half d = 5, q = 2    30,000      360    8.1 /  8.1   5.4 / 3.9
#   whole half d = 5, q = 0    75,000    1,310   16.7 / 13.9   9.9 / 8.1
#   whole half d = 6, q = 3    97,200      543   19.0 /  9.6  11.4 / 4.7
#   nilpotent (13, 10)        111,600      675   25.4 /  9.9  13.8 / 5.0
# The RHS breaks even between 11,520 and 30,000 entries; 2^14 lies in that
# range, and moving it would change which kernel, and so which summation
# order, a support's runs take.  These are single states: a product over a
# batch of states reads the dense table once per batch, so a batched RHS
# needs its own crossover.
DENSE_TABLE_MAX_ENTRIES = 2**14


@dataclass(frozen=True)
class _SparseForm:
    """A bilinear vector map kept as its nonzero coefficients.

    Component k of form(x, y) is the sum of coef[p] x[a[p]] y[b[p]] over the
    terms p with row[p] = k, for k < rows: one gather of each argument, two
    products and one `np.bincount`.  A quadratic form in u is form(u, u).
    The Jacobi rows of `_ResidualForms` and both halves of a sparse
    `_StackedTable` are evaluated by this one method, or by `gathered` on
    operands the caller gathered itself, as the bracket flow's RHS does.
    Every array is read-only.  A form with no terms is built as a
    `_ZeroForm`.
    """

    row: np.ndarray
    a: np.ndarray
    b: np.ndarray
    coef: np.ndarray
    rows: int

    def __new__(cls, row, a, b, coef, rows):
        return object.__new__(cls if len(coef) else _ZeroForm)

    def __post_init__(self):
        for arr in (self.row, self.a, self.b, self.coef):
            arr.setflags(write=False)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.gathered(x[self.a], y[self.b])

    def gathered(self, xa: np.ndarray, yb: np.ndarray) -> np.ndarray:
        """form(x, y) from its operands already gathered, xa = x[a] and yb = y[b]."""
        return np.bincount(self.row, self.coef * xa * yb, self.rows)


class _ZeroForm(_SparseForm):
    """A `_SparseForm` with no terms, whose components are 0.0.

    `np.bincount` of no terms ignores its float weights and counts in int64.
    """

    def gathered(self, xa: np.ndarray, yb: np.ndarray) -> np.ndarray:
        return np.zeros(self.rows)


@dataclass(frozen=True)
class _StackedTable:
    """Ric and the bracket flow's RHS as one stacked table on a support S of the i < j half.

    Attributes:
        support: the m' positions in the i < j half (`algebra._half_indices`)
            that the state holds, sorted.
        upper: their flat tensor indices; the state of c is u = c.ravel()[upper].
        mirror: the flat indices of their mirrors (j, i, k), where c holds -u
            (`algebra._half_indices`).
        q_form: Q as its nonzero coefficients: r = q_form(u, u) are Ric's rows.
        p_form: P as its nonzero coefficients: the derivative of u is
            p_form(r, u).
        stack: [Q; P] as a dense (2 * rows * m', m') matrix when the table
            holds at most DENSE_TABLE_MAX_ENTRIES entries, else None and the
            table is applied through q_form and p_form; read-only.
        rows: Ricci rows in each half: the entries of Ric's upper triangle
            that are not identically 0 on V_S, plus one zero row when some
            entry is.
        sym: (n, n) index into the rows of each entry of Ric, so Ric = r[sym];
            every entry that vanishes on V_S reads the zero row.
        grown: S together with every half entry that the RHS on V_S reaches;
            S is flow-invariant exactly when grown == support.
        gather: where there is no stack, [q_form.a | q_form.b | p_form.b],
            the index of the sparse RHS's one gather of u, derived from the
            forms; else None.  Read-only.
    """

    support: tuple
    upper: np.ndarray
    mirror: np.ndarray
    q_form: _SparseForm
    p_form: _SparseForm
    stack: np.ndarray | None
    rows: int
    sym: np.ndarray
    grown: tuple
    gather: np.ndarray | None = field(init=False)

    def __post_init__(self):
        gather = None
        if self.stack is None:
            gather = np.concatenate([self.q_form.a, self.q_form.b, self.p_form.b])
            gather.setflags(write=False)
        object.__setattr__(self, "gather", gather)

    @property
    def entries(self) -> int:
        """The size of the dense [Q; P], 2 * rows * m'^2, whether or not it is built."""
        return 2 * self.rows * self.upper.size**2


def _dense_stack(q_form: _SparseForm, p_form: _SparseForm, m: int) -> np.ndarray:
    # [Q; P] as the (2 * rows * m', m') matrix the dense product reads: each
    # off-diagonal coefficient of Q is halved onto (a, b) and (b, a), and P
    # is scattered to [row of Ric, output entry, input entry].
    rows = q_form.rows
    table = np.zeros((2, rows, m, m))
    table[0, q_form.row, q_form.a, q_form.b] = table[0, q_form.row, q_form.b, q_form.a] = np.where(
        q_form.a == q_form.b, q_form.coef, q_form.coef / 2
    )
    table[1, p_form.a, p_form.row, p_form.b] = p_form.coef
    return table.reshape(2 * rows * m, m)


def _support_slots(d: int, sel: np.ndarray) -> np.ndarray:
    # The one map from the flat indices of c to the state u on the support
    # whose half positions are sel: slot a + 1 at upper[sel[a]], where c
    # holds u_a, -(a + 1) at its mirror, where c holds -u_a, and 0 wherever
    # c is 0 on V_S.  d^3 integers, 17.6 kB at d = 13.
    half, mirror = _half_indices(d)
    return _from_half(np.arange(1.0, sel.size + 1), half[sel], mirror[sel], d).ravel().astype(np.intp)


def _matches(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Every pair (i, j) with left[i] == right[j], i ascending, allocating
    # only the pairs it returns.
    order = np.argsort(right, kind="stable")
    lo, hi = np.searchsorted(right[order], left, "left"), np.searchsorted(right[order], left, "right")
    i = np.repeat(np.arange(left.size), hi - lo)
    return i, order[np.arange(i.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)]


def _paired(slot: np.ndarray, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The two factors of a product of gathers, left and right arrays of flat
    # indices of c whose last axes are the index summed over: the flat
    # positions (l, r) in them of every pair of gathers that share that index
    # and are both live on the support, so no term with a factor 0 on V_S is
    # ever formed.
    l, r = np.flatnonzero(slot[left]), np.flatnonzero(slot[right])
    i, j = _matches(l % left.shape[-1], r % right.shape[-1])
    return l[i], r[j]


def _summed(cols: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The distinct columns of the integer array cols, in lexicographic order,
    # and the sum of w over each; zero sums are dropped.  Every weight here
    # is a small dyadic number, so every sum is exact in any order.  (With
    # no terms, bincount would return integers.)
    keys, inv = np.unique(cols, axis=1, return_inverse=True)
    coef = np.bincount(inv.ravel(), w, keys.shape[1]).astype(float)
    return keys[:, coef != 0], coef[coef != 0]


def _quadratic_form(slot: np.ndarray, comp, fa, fb, w) -> tuple[np.ndarray, ...]:
    """The quadratic map with components sum_{p: comp[p] = k} w[p] c[fa[p]] c[fb[p]], in the state on a support.

    fa and fb are flat indices of c where it is live on V_S, read through
    the support's `slot`s (`_support_slots`).  With u the state, the map is
    sum_{a <= b} C_ab u_a u_b: the terms of u_a u_b and u_b u_a are summed
    onto (a, b), a <= b, and zero sums dropped.  Returns (active, row, a, b,
    coef), the nonzero coefficients as coordinate lists sorted by (a, b,
    component): active are the sorted components that some coefficient
    reaches, and coef[p] is the coefficient of u_a[p] u_b[p] in component
    active[row[p]].  These are exactly the coefficients, in the same order,
    that polarizing the map on the mirrored basis gives, C_aa = f(E_a) and
    C_ab = f(E_a + E_b) - f(E_a) - f(E_b), as tests/oracles.py does.
    """
    sa, sb = slot[fa], slot[fb]
    a, b = np.abs(sa) - 1, np.abs(sb) - 1
    keys, coef = _summed(np.stack([np.minimum(a, b), np.maximum(a, b), comp]), w * np.sign(sa * sb))
    active, row = np.unique(keys[2], return_inverse=True)
    return active, row, keys[0], keys[1], coef


def _ricci_terms(d: int, q: int, slot: np.ndarray) -> tuple[np.ndarray, ...]:
    # Ric = S(G - adH) of `_ricci_gemm` as product terms (k, fa, fb, w) of
    # Ric[x, y], k = (x, y) in the order of np.triu_indices(n), x <= y,
    # through its gather plan: G[x, y] = sum_p c[idx[0, x, p]]
    # (sum_s w[s, y, p] c[idx[s, y, p]]), paired on p (a gather of weight 0
    # reads c[0, 0, 0], which is never live), and adH[x, y] = sum_{x', j}
    # c[q+x', j, j] c[q+x', q+x, q+y], paired on x'.  S halves each term of
    # an off-diagonal entry.
    idx, w = _ricci_plan(d, q)
    n, rows = d - q, np.arange(q * d * d, d**3).reshape(d - q, d, d)
    g, h = _paired(slot, idx[0], np.where(w != 0, idx, 0))
    trace, ad = rows[:, np.arange(d), np.arange(d)].T, rows[:, q:, q:].transpose(1, 2, 0)
    t, a = _paired(slot, trace, ad)
    x = np.concatenate([g // idx.shape[-1], a // n**2])
    y = np.concatenate([h // idx.shape[-1] % n, a // n % n])
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    w = np.concatenate([w.flat[h], -np.ones(a.size)]) * np.where(x == y, 1.0, 0.5)
    fa, fb = np.concatenate([idx[0].flat[g], trace.flat[t]]), np.concatenate([idx.flat[h], ad.flat[a]])
    return lo * n - lo * (lo - 1) // 2 + hi - lo, fa, fb, w


def _pi_terms(d: int, r: np.ndarray, s: np.ndarray, t: np.ndarray, slot: np.ndarray) -> tuple[np.ndarray, ...]:
    # -pi(F_r) c for the symmetric unit matrix F_r of each Ricci row, as
    # terms (r, out, x) with weights w: u_x moves the entry at the flat index
    # out by w.  F_r[s, t] = 1 at each (r, s, t) = (r[e], s[e], t[e]), s and
    # t indices of g.  The three terms of `algebra._pi_tensor` give out
    # (i, j, s) <- -c[i, j, t], (t, j, k) <- c[s, j, k] and (i, t, k) <-
    # -c[s, i, k], each c read where it is live on S; only outputs in the
    # i < j half are kept.
    live = np.flatnonzero(slot)
    a, b = _matches(t, live % d)
    e, f = _matches(s, live // d**2)
    inner = live[f] % d**2
    out = np.concatenate([live[b] - t[a] + s[a], t[e] * d**2 + inner, inner // d * d**2 + t[e] * d + inner % d])
    rows, inputs = np.concatenate([r[a], r[e], r[e]]), slot[np.concatenate([live[b], live[f], live[f]])]
    w = np.repeat([-1.0, 1.0, -1.0], [a.size, e.size, e.size]) * np.sign(inputs)
    up = out // d**2 < out // d % d
    return np.stack([rows[up], out[up], np.abs(inputs[up]) - 1]), w[up]


@lru_cache(maxsize=32)
def _rhs_table(d: int, q: int, support: tuple) -> _StackedTable:
    """The stacked table of Ric and the bracket flow's RHS on the support S.

    With u = c.ravel()[upper] the entries of c on S and r the table's Ricci
    rows, the table holds two coefficient arrays of shape (rows, m', m'):

        r[k] = sum_{a,b} Q[k, a, b] u_a u_b,
        (-pi(diag(0, Ric)) c).ravel()[upper] = sum_{k,a} r[k] P[k, :, a] u_a,

    for every antisymmetric c supported on S, if S is flow-invariant.  Both
    are written down from index terms.  Q comes from `_ricci_terms`, the
    GEMM kernel's own gather plan and weights plus the ad H term, summed by
    `_quadratic_form`: it keeps Q[:, a, a] and, for a < b, Q[:, a, b] +
    Q[:, b, a], so r = q_form(u, u), and drops the rows of Q that are 0 on
    all of S.  P[k, :, a] is the half of -pi(diag(0, F_k)) E_a, F_k the
    symmetric unit matrix of Ricci row k and E_a the mirrored basis tensor
    of entry a (+1 at upper[a], -1 at mirror[a]), from the three terms of
    `algebra._pi_tensor` (`_pi_terms`); its entries outside S give `grown`.
    Both are kept as their nonzero coefficients, and the RHS is p_form(r,
    u), in the layout of u.  A table of at most DENSE_TABLE_MAX_ENTRIES
    entries is also scattered to the dense stack [Q; P] (`_dense_stack`),
    and then with s = (stack @ u).reshape(2, rows, m') the RHS is (r = s[0]
    @ u) @ s[1].  The two apply the same coefficients in another summation
    order.  With +-1 entries and power-of-two weights every coefficient is
    exact, halved ones too, and equal, in the same order, to polarizing the
    GEMM kernel and `algebra._pi_tensor` on the mirrored basis, the build
    this replaces (kept as a test oracle), so every sum over them rounds as
    before.  Each flow run holds the table of its support: the bracket
    flow's (`_flow_table`), and the metric flow's, whose Q half
    `_ricci_from_state` applies.  Every array is read-only.
    """
    half, mirror = _half_indices(d)
    sel = np.array(support, dtype=np.intp)
    m, n = sel.size, d - q
    iu = np.triu_indices(n)
    slot = _support_slots(d, sel)
    active, row, a, b, coef = _quadratic_form(slot, *_ricci_terms(d, q, slot))
    rows = active.size + (active.size < iu[0].size)
    q_form = _SparseForm(row, a, b, coef, rows)
    sym = np.full((n, n), rows - 1, dtype=np.intp)
    sym[iu[0][active], iu[1][active]] = sym[iu[1][active], iu[0][active]] = np.arange(active.size)
    s, t = np.nonzero(sym < active.size)  # the entries of Ric on a row that is not the zero row
    (r, out, x), coef = _summed(*_pi_terms(d, sym[s, t], q + s, q + t, slot))
    on = slot[out] > 0
    p_form = _SparseForm(slot[out[on]] - 1, r[on], x[on], coef[on], m)
    stack = None
    if 2 * rows * m * m <= DENSE_TABLE_MAX_ENTRIES:
        stack = _dense_stack(q_form, p_form, m)
        stack.setflags(write=False)
    upper, mirror = half[sel], mirror[sel]
    for arr in (upper, mirror, sym):
        arr.setflags(write=False)
    grown = tuple(np.union1d(sel, np.searchsorted(half, out)).tolist())
    return _StackedTable(support, upper, mirror, q_form, p_form, stack, rows, sym, grown)


def _flow_table(mu: LieBracket) -> _StackedTable:
    """The stacked table the bracket flow of mu steps on.

    The support is the i < j entries of mu that are nonzero, grown until
    the RHS maps V_S into itself: the least flow-invariant support that
    holds them.  The flow then never leaves V_S: entries outside S stay
    exactly 0.  Every support has a table; the zero bracket's is the empty
    support's.
    """
    d, q = mu.dims.d, mu.dims.q
    table = _rhs_table(d, q, tuple(np.flatnonzero(mu.c.ravel()[_half_indices(d)[0]]).tolist()))
    while table.grown != table.support:
        table = _rhs_table(d, q, table.grown)
    return table


@dataclass(frozen=True)
class _ResidualForms:
    """The admissibility residuals on a support S as forms in the stepper's state u.

    Attributes:
        jac: the Jacobiator's components on the triples i < j < l
            (`algebra._jacobi_triples`) that are not identically 0 on V_S,
            as the nonzero coefficients from `_quadratic_form`: they are
            jac(u, u), and jac.rows counts them.
        lin: the rows of h1's, then h3's, components
            (`algebra._isotropy_parts`) that are not identically 0 on V_S, as
            a matrix with m' columns: the components are lin @ u.
        h1_rows: how many of lin's rows are h1's.
    """

    jac: _SparseForm
    lin: np.ndarray
    h1_rows: int

    @property
    def rows(self) -> int:
        """Residual rows read per state; 0 when every residual vanishes identically on V_S."""
        return self.jac.rows + self.lin.shape[0]

    def residuals(self, u: np.ndarray) -> tuple[float, float, float]:
        """(jacobi, h1, h3) of the state u, the max-norms that `algebra._residuals` takes of its tensor."""
        jac = h1 = h3 = 0.0
        if self.jac.rows:
            jac = float(np.abs(self.jac(u, u)).max())
        if self.lin.shape[0]:
            # a few rows: Python's max of the list is cheaper than two numpy reductions
            lin = np.abs(self.lin.dot(u)).tolist()
            h1, h3 = max(lin[: self.h1_rows], default=0.0), max(lin[self.h1_rows :], default=0.0)
        return jac, h1, h3


@lru_cache(maxsize=32)
def _residual_forms(d: int, q: int, support: tuple) -> _ResidualForms:
    """The residual forms of the support S, built once per (d, q, S).

    The Jacobiator is quadratic in u.  Its i < j < l components, d * C(d, 3)
    of them (3718 at d = 13), are sums of the three terms of
    `algebra._triple_plan`, each a[i,j,l,k] = sum_m c[i,j,m] c[m,l,k]: every
    plan entry is paired with the live entries c[i,j,m] of S (`_matches`),
    its second factor c[m,l,k] is read off, and `_quadratic_form` sums the
    terms, as `_rhs_table` sums Ric's.  So the pair (a, b) has a nonzero
    coefficient only when E_a and E_b chain, the output index of one being
    an input index of the other.  On a two-step nilpotent support no pair
    chains ([v, v] lies in the centre z), so no Jacobi form is built.  The
    forms are kept as their nonzero coefficients: on dense supports most of
    the m'^2 coefficients of a row are 0 (1680 nonzero of 120 * 90^2 on the
    whole half at d = 6, q = 3), and reading them costs less than the flat
    check up to d = 6 (35 against 39 us there, 16 against 17 us at d = 5,
    q = 0, per state on a 2-CPU host), more beyond (51 against 16 us on a
    dense support at d = 7).  h1 and h3 are linear and read off the basis
    tensors of S by `algebra._isotropy_parts`.  Every coefficient is exact,
    and only rows that are 0 on all of V_S are dropped, so a residual with
    no row is exactly 0 at every state on S.
    """
    half, mirror = _half_indices(d)
    sel = np.array(support, dtype=np.intp)
    slot, plan, flat = _support_slots(d, sel), _triple_plan(d).ravel(), np.arange(d**3).reshape(d, d * d)
    l, r = _paired(slot, flat.reshape(d * d, d), flat.T)
    i, j = _matches(plan, l // d * d * d + r // d)
    active, *jac = _quadratic_form(slot, i % (plan.size // 3), l[j], flat.T.flat[r[j]], np.ones(i.size))
    # h1 and h3 read only the entries c[i, j, l] with i < q, the first k of
    # S: the linear rows are read off their mirrored basis E_a (+1 at
    # upper[sel[a]], -1 at its mirror), and the other columns are 0.
    k = np.searchsorted(half[sel], q * d * d)
    basis = np.moveaxis(_from_half(np.eye(sel.size, k), half[sel], mirror[sel], d), -1, 0)
    h1, h3 = (np.pad(p.T, ((0, 0), (0, sel.size - k)))[p.T.any(axis=1)] for p in _isotropy_parts(basis, q))
    lin = np.vstack([h1, h3])
    lin.setflags(write=False)
    return _ResidualForms(_SparseForm(*jac, active.size), lin, h1.shape[0])


def _ricci_from_tensor(c: np.ndarray, table: _StackedTable) -> np.ndarray:
    """Ricci matrix of the raw tensor through the Q half of a support's table.

    It reads the entries of c on the table's support only, u =
    c.ravel()[upper], and applies `_ricci_from_state` to them.  Exact only
    for a tensor whose i < j half is 0 off the support.
    """
    return _ricci_from_state(c.ravel()[table.upper], table)


def _ricci_from_state(u: np.ndarray, table: _StackedTable) -> np.ndarray:
    """Ricci matrix of the state u on a support through the Q half of its table: the metric flow's hot path.

    Two matrix-vector products on a dense table, one `bincount` over the
    nonzero coefficients on a sparse one (DENSE_TABLE_MAX_ENTRIES).  The
    metric flow's kernel pushes its bracket straight into u
    (`metric_flow._PushKernel`).  Returns an exactly symmetric ric.
    """
    if table.stack is None:
        return table.q_form(u, u)[table.sym]
    return table.stack[: table.rows * u.size].dot(u).reshape(table.rows, -1).dot(u)[table.sym]


def _scalar_rate(u: np.ndarray, du: np.ndarray, table: _StackedTable) -> np.ndarray:
    """dR along du at each row of the stack of states u, through the Q half of their support's table.

    R = tr Ric is the sum of Ric's diagonal rows (`table.sym.diagonal()`),
    each sum coef u_a u_b over q_form's terms on that row, so its derivative
    along du is the sum of coef (du_a u_b + u_a du_b) over those terms.  The
    coefficients are exact.  u and du have one state per row.
    """
    q = table.q_form
    on = np.isin(q.row, table.sym.diagonal())
    a, b = q.a[on], q.b[on]
    return (du[:, a] * u[:, b] + u[:, a] * du[:, b]).dot(q.coef[on])


def _ricci_gemm(c: np.ndarray, q: int) -> np.ndarray:
    """Ricci matrix of the raw tensor by the fused GEMM kernel, whose plan every Ricci table is written from.

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

    A stack of tensors, shape (..., d, d, d), gives the stack of their Ricci
    matrices, shape (..., n, n): each the same operations as its single
    call, through one gather and one batched product for the whole stack.
    """
    d = c.shape[-1]
    batch = c.shape[:-3]
    idx, w = _ricci_plan(d, q)
    # `take` lays each tensor's gather out contiguously, as a single call's
    # is, so that each product runs the same BLAS kernel on it.
    gathered = c.reshape(batch + (d**3,)).take(idx, axis=-1)
    weighted = gathered * w
    rows = c[..., q:, :, :].reshape(batch + (d - q, d * d))
    h = rows[..., :: d + 1].sum(-1)
    ad_h = (h[..., None, :] @ rows).reshape(batch + (d, d))[..., q:, q:]
    a = gathered[..., 0, :, :] @ (weighted[..., 0, :, :] + weighted[..., 1, :, :]).swapaxes(-1, -2) - ad_h
    return 0.5 * (a + a.swapaxes(-1, -2))


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
    ric = _ricci_gemm(mu.c, mu.dims.q)
    return RicciData(ric, float(ric.trace()), float(np.vdot(ric, ric)))


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
    return RicciData(
        ric=ric,
        scalar=float(np.trace(ric)),
        ric_sq_trace=float(np.sum(ric * ric)),
        riem_sq=float(np.sum(riem * riem)),
    )
