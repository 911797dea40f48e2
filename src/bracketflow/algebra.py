"""Lie brackets as structure-constant tensors on a split vector space.

The ambient space is R^(q+n) with a fixed orthonormal basis.  The first q
basis vectors span the isotropy part k, the remaining n span the tangent
part p.  A bracket mu is stored densely as the rank-3 tensor

    c[i, j, k] = <mu(X_i, X_j), X_k>,

antisymmetric in (i, j).  The background inner product is the identity in
this basis with <k, p> = 0, so changing the metric on the underlying
homogeneous space always means changing mu, never the inner product.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

__all__ = [
    "Dimensions",
    "LieBracket",
    "ConditionReport",
    "DimensionMismatchError",
    "NotInVarietyError",
    "bracket_norm",
    "scale_bracket",
    "pi_action",
    "transform_bracket",
    "jacobiator",
    "check_conditions",
    "random_bracket",
    "random_two_step_nilpotent",
]

DEFAULT_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Operand shapes do not match the declared (q, n) split."""


class NotInVarietyError(ValueError):
    """The bracket fails the admissibility conditions beyond tolerance."""


@dataclass(frozen=True)
class Dimensions:
    """Isotropy dimension q >= 0 and space dimension n >= 1.

    Indices 0..q-1 span k, indices q..q+n-1 span p.
    """

    q: int
    n: int

    def __post_init__(self):
        if self.q < 0 or self.n < 1:
            raise ValueError(f"need q >= 0 and n >= 1, got q={self.q}, n={self.n}")

    @property
    def d(self) -> int:
        return self.q + self.n

    @property
    def p_slice(self) -> slice:
        return slice(self.q, self.d)


@cache
def _half_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(upper, mirror): flat indices of the i < j half of a d x d x d tensor and of its mirror.

    upper holds the m = d * d(d-1)/2 flat indices of the entries (i, j, k)
    with i < j, in C order, and mirror[a] the flat index of (j, i, k) for
    upper[a].  So every antisymmetric c is determined by its half
    u = c.ravel()[upper], and c.ravel()[mirror] = -u.  Both arrays are
    read-only; they hold indices only, so they cost 2m integers at any d.
    """
    flat = np.arange(d**3).reshape(d, d, d)
    i, j = np.triu_indices(d, 1)
    upper, mirror = flat[i, j].ravel(), flat[j, i].ravel()
    upper.setflags(write=False)
    mirror.setflags(write=False)
    return upper, mirror


def _from_half(u: np.ndarray, upper: np.ndarray, mirror: np.ndarray, d: int) -> np.ndarray:
    # The (d, d, d) tensor with u at the flat indices `upper` of i < j
    # entries, 0.0 - u at their `mirror`s (see `_half_indices`) and 0
    # elsewhere, so exactly antisymmetric; for a stack of vectors as the
    # columns of u, shape (m, T), the T tensors along a last axis.  As in
    # the antisymmetrization s - s^T, a -0.0 entry mirrors to +0.0.
    c = np.zeros((d, d, d) + u.shape[1:])
    flat = c.reshape((d**3,) + u.shape[1:])
    flat[upper] = u
    flat[mirror] = 0.0 - u
    return c


@dataclass(frozen=True)
class LieBracket:
    """A skew-symmetric algebra structure on R^(q+n).

    The entries with i < j are authoritative: construction mirrors them to
    i > j and zeroes the diagonal, so any tensor passed in comes out exactly
    antisymmetric in the first two slots.  Instances are immutable; the
    tensor is marked read-only.
    """

    dims: Dimensions
    c: np.ndarray

    def __post_init__(self):
        d = self.dims.d
        c = np.asarray(self.c, dtype=float)
        if c.shape != (d, d, d):
            raise DimensionMismatchError(
                f"structure tensor must have shape {(d, d, d)}, got {c.shape}"
            )
        upper, mirror = _half_indices(d)
        skew = _from_half(c.ravel()[upper], upper, mirror, d)
        skew.setflags(write=False)
        object.__setattr__(self, "c", skew)

    @classmethod
    def from_triples(cls, q, n, triples, one_indexed=False):
        """Build a bracket from sparse (i, j, k, value) entries.

        Args:
            q, n: the k/p split.
            triples: iterable of (i, j, k, value) with <mu(X_i, X_j), X_k> = value,
                the indices Python or numpy integers and the value a Python
                or numpy real number (neither a bool).  Entries with i > j
                are accepted and folded into the i < j slot.
            one_indexed: interpret indices as 1-based (as written in hand
                calculations) instead of 0-based.

        Raises:
            ValueError: on an index that is not an integer or out of range,
                i == j, a value that is not a finite real number, or two entries that
                disagree on the same unordered pair.
        """
        dims = Dimensions(q, n)
        d = dims.d
        off = 1 if one_indexed else 0
        seen: dict[tuple[int, int, int], float] = {}
        for entry in triples:
            i, j, k, v = entry
            if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (i, j, k)):
                raise ValueError(f"bracket entry {entry}: indices must be integers")
            i, j, k = int(i) - off, int(j) - off, int(k) - off
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                raise ValueError(f"bracket entry {entry}: index out of range for d={d}")
            if i == j:
                raise ValueError(f"bracket entry {entry}: i == j makes no sense for a skew bracket")
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                raise ValueError(f"bracket entry {entry}: value must be a real number")
            if not np.isfinite(float(v)):
                raise ValueError(f"bracket entry {entry}: value must be finite")
            key = (min(i, j), max(i, j), k)
            sv = float(v) if i < j else -float(v)
            if key in seen and seen[key] != sv:
                raise ValueError(f"bracket entry {entry}: conflicts with an earlier entry on pair {key[:2]}")
            seen[key] = sv
        c = np.zeros((d, d, d))
        for (i, j, k), v in seen.items():
            c[i, j, k] = v
        return cls(dims, c)

    @classmethod
    def zero(cls, q, n):
        dims = Dimensions(q, n)
        return cls(dims, np.zeros((dims.d,) * 3))


@dataclass(frozen=True)
class ConditionReport:
    """Residuals of the homogeneity conditions for a bracket.

    All residuals vanish (up to tolerance) exactly when the bracket is a Lie
    bracket compatible with the k + p split and the background inner product.
    The residuals are absolute; `passes` reads each relative to mu_norm = |mu|
    to its degree (`_relative_residuals`), as the drift check along the flow
    does, so the check does not depend on the scale of mu: 2^k mu passes
    exactly when mu does.  The closedness of the isotropy subgroup is not
    computable from structure constants; it is a human-authored note
    (`catalog.CatalogEntry.h2_note`, the `h2_note` scenario key).
    """

    jacobi_residual: float
    h1_residual: float
    h3_residual: float
    h4_kernel_dim: int
    mu_norm: float

    def relative(self) -> tuple[float, float, float]:
        """(jacobi, h1, h3) residuals relative to |mu|^2, |mu| and |mu|."""
        return _relative_residuals(self.jacobi_residual, self.h1_residual, self.h3_residual, self.mu_norm**2)

    def passes(self, tol: float = DEFAULT_TOL) -> bool:
        return all(r <= tol for r in self.relative()) and self.h4_kernel_dim == 0

    def worst(self) -> tuple[str, float]:
        """Name and relative value of the largest residual (h4 counts as 1.0 per kernel dim)."""
        items = [
            *zip(("jacobi_residual", "h1_residual", "h3_residual"), self.relative()),
            ("h4_kernel_dim", float(self.h4_kernel_dim)),
        ]
        return max(items, key=lambda kv: kv[1])

    def require(self, tol: float) -> None:
        """Raise NotInVarietyError, naming the worst residual, unless `passes(tol)`."""
        if not self.passes(tol):
            name, value = self.worst()
            relative = "" if name == "h4_kernel_dim" else " (relative to |mu| to its degree)"
            raise NotInVarietyError(
                f"bracket fails admissibility: {name} = {value:.6e} exceeds tolerance {tol:.1e}{relative}"
            )


def bracket_norm(mu: LieBracket) -> float:
    """Norm sqrt(sum c[i,j,k]^2) over all ordered index triples."""
    return float(np.sqrt(np.sum(mu.c * mu.c)))


def scale_bracket(mu: LieBracket, s: float) -> LieBracket:
    return LieBracket(mu.dims, s * mu.c)


def _extend_on_p(dims: Dimensions, a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (dims.n, dims.n):
        raise DimensionMismatchError(
            f"endomorphism must act on p: expected shape {(dims.n, dims.n)}, got {a.shape}"
        )
    abar = np.zeros((dims.d, dims.d))
    abar[dims.p_slice, dims.p_slice] = a
    return abar


def _pi_tensor(abar: np.ndarray, c: np.ndarray) -> np.ndarray:
    # pi(A)mu = A mu(.,.) - mu(A., .) - mu(., A.); the third term is the
    # (i <-> j) mirror of the second because c is antisymmetric.  Both terms
    # are GEMMs on reshaped views of c.  pi is linear in c, so a stack of
    # tensors along a leading axis, shape (m, d, d, d), gives the m results
    # in one call; a single tensor makes the same two 2-D GEMMs as ever.
    d = abar.shape[0]
    term1 = (c.reshape(-1, d) @ abar.T).reshape(c.shape)
    term2 = (abar.T @ c.reshape(c.shape[:-3] + (d, d * d))).reshape(c.shape)
    return term1 - term2 + np.swapaxes(term2, -3, -2)


def pi_action(a: np.ndarray, mu: LieBracket) -> LieBracket:
    """Apply the representation pi(diag(0, a)) to a bracket.

    The n x n matrix `a` acts on p and is extended by zero on k.  Returns
    A mu(.,.) - mu(A., .) - mu(., A.) as a new bracket.
    """
    abar = _extend_on_p(mu.dims, a)
    return LieBracket(mu.dims, _pi_tensor(abar, mu.c))


def transform_bracket(mu: LieBracket, g: np.ndarray) -> LieBracket:
    """Push a bracket through an invertible map: (g.mu)(x,y) = g mu(g^-1 x, g^-1 y).

    `g` is a full d x d change of frame; for q = 0 this is the GL(n) action
    used to trade a metric change for a bracket change.  In components,
    (g.mu)[i,j,k] = sum_{a,b,m} ginv[a,i] ginv[b,j] g[k,m] c[a,b,m], computed
    as three mode products, each one matrix product: O(d^4), not O(d^6).
    """
    d = mu.dims.d
    g = np.asarray(g, dtype=float)
    if g.shape != (d, d):
        raise DimensionMismatchError(f"expected shape {(d, d)}, got {g.shape}")
    return LieBracket(mu.dims, _transform_tensor(mu.c, g, np.linalg.inv(g)))


def _transform_tensor(c: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    # The three mode products of `transform_bracket` on the raw tensor, with
    # the inverse supplied by the caller (the metric flow has it from its
    # factorization).  The result is antisymmetric up to rounding only.
    # Leading axes of c (..., d, d, d) and of g, ginv (..., d, d) broadcast
    # into a stack of transformed tensors, each the same operations as its
    # single call.
    d = c.shape[-1]
    ginv_t = ginv.swapaxes(-1, -2)
    t = c.reshape(*c.shape[:-3], d * d, d) @ g.swapaxes(-1, -2)
    batch = t.shape[:-2]
    t = (ginv_t @ t.reshape(*batch, d, d * d)).reshape(*batch, d, d, d)  # [a, (b, k)], then [i, b, k]
    return ginv_t[..., None, :, :] @ t


def jacobiator(mu: LieBracket) -> np.ndarray:
    """Components of mu(mu(x,y),z) + mu(mu(y,z),x) + mu(mu(z,x),y) on the basis.

    J[i,j,l,k] = a[i,j,l,k] + a[j,l,i,k] + a[l,i,j,k], where
    a[i,j,l,k] = sum_m c[i,j,m] c[m,l,k] is one (d^2, d) x (d, d^2) matrix product.
    """
    d = mu.dims.d
    a = (mu.c.reshape(d * d, d) @ mu.c.reshape(d, d * d)).reshape(d, d, d, d)
    return a + a.transpose(2, 0, 1, 3) + a.transpose(1, 2, 0, 3)


@cache
def _triple_plan(d: int) -> np.ndarray:
    # (3, T*d) read-only flat indices into a[i,j,l,k] (shape (d,)*4) of the
    # three cyclic terms a[i,j,l,k], a[j,l,i,k], a[l,i,j,k] of the Jacobiator,
    # for every triple i < j < l and every k: T = d(d-1)(d-2)/6 triples.
    i, j, l = np.array(list(combinations(range(d), 3)), dtype=np.intp).reshape(-1, 3).T
    k = np.arange(d)

    def flat(a, b, m):
        return (((a * d + b) * d + m)[:, None] * d + k).ravel()

    plan = np.stack([flat(i, j, l), flat(j, l, i), flat(l, i, j)])
    plan.setflags(write=False)
    return plan


def _jacobi_triples(c: np.ndarray) -> np.ndarray:
    # The Jacobiator's components J[i,j,l,k] on the triples i < j < l, for
    # every k, as one vector: J[i,j,l,k] = a[i,j,l,k] + a[j,l,i,k] +
    # a[l,i,j,k], gathered from a = c c (one GEMM) through `_triple_plan`.
    # J is totally antisymmetric in its three bracket slots, so these
    # components hold all of it; with d < 3 there are none.
    d = c.shape[0]
    a = (c.reshape(d * d, d) @ c.reshape(d, d * d)).ravel()
    return a.take(_triple_plan(d)).sum(0)


def _isotropy_parts(c: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    # The components whose max-norms are h1 and h3, as two vectors: the
    # entries of mu(k,k) in p and of mu(k,p) in k, then those of
    # ad Z|_p + (ad Z|_p)^T for Z in the k-basis.  Both are linear in c; a
    # stack of tensors along a leading axis gives a stack of vectors.
    lead, n = c.shape[:-3], c.shape[-1] - q
    kk_out = c[..., :q, :q, q:].reshape(lead + (q * q * n,))
    kp_out = c[..., :q, q:, :q].reshape(lead + (q * n * q,))
    s = c[..., :q, q:, q:]
    return np.concatenate([kk_out, kp_out], axis=-1), (s + np.swapaxes(s, -1, -2)).reshape(lead + (q * n * n,))


def _residuals(c: np.ndarray, q: int) -> tuple[float, float, float]:
    """(jacobi, h1, h3) residuals of the raw tensor c, antisymmetric in (i, j).

    Each is the max-norm of its components: the Jacobiator's on the triples
    i < j < l (`_jacobi_triples`), and h1's and h3's (`_isotropy_parts`).
    """
    jac = float(np.abs(_jacobi_triples(c)).max(initial=0.0))
    if q == 0:
        return jac, 0.0, 0.0
    h1, h3 = _isotropy_parts(c, q)
    return jac, float(np.abs(h1).max()), float(np.abs(h3).max())


def _relative_residuals(jac: float, h1: float, h3: float, nsq: float) -> tuple[float, float, float]:
    """(jac / |mu|^2, h1 / |mu|, h3 / |mu|), where nsq = |mu|^2.

    Each residual relative to |mu| to its degree: the Jacobiator is
    quadratic in mu, h1 and h3 are linear, so the three do not change under
    mu -> c mu (bit for bit when c is a power of 2).  Both the admissibility check of a bracket
    (`ConditionReport.passes`) and the drift along the flow read them.  The
    zero bracket's residuals are 0, and so are these.
    """
    if nsq == 0.0:
        return 0.0, 0.0, 0.0
    norm = np.sqrt(nsq)
    return jac / nsq, h1 / norm, h3 / norm


def check_conditions(mu: LieBracket) -> ConditionReport:
    """Measure how far a bracket is from the admissible set.

    Returns raw residuals (the first three from `_residuals`) and |mu|:
      * jacobi_residual: max-norm of the Jacobiator over all basis triples,
        read off the triples i < j < l since J is totally antisymmetric;
      * h1_residual: components of mu(k,k) outside k and mu(k,p) outside p;
      * h3_residual: max over Z in the k-basis of max|ad Z|_p + (ad Z|_p)^T|,
        i.e. failure of ad(k) to act skewly on p;
      * h4_kernel_dim: dimension of {Z in k : mu(Z, p) = 0}, from the rank of
        Z -> mu(Z, .)|_p.
    """
    q = mu.dims.q
    jac, h1, h3 = _residuals(mu.c, q)
    h4_kernel = q - int(np.linalg.matrix_rank(mu.c[:q, q:, :].reshape(q, -1))) if q else 0
    return ConditionReport(jac, h1, h3, h4_kernel, bracket_norm(mu))


def random_bracket(q: int, n: int, rng: np.random.Generator, scale: float = 1.0) -> LieBracket:
    """Random dense antisymmetric tensor (no Jacobi identity imposed)."""
    dims = Dimensions(q, n)
    c = scale * rng.standard_normal((dims.d,) * 3)
    return LieBracket(dims, c)


def random_two_step_nilpotent(n: int, rng: np.random.Generator, center_dim: int | None = None) -> LieBracket:
    """Random two-step nilpotent bracket with q = 0.

    The basis splits into v (first n - z vectors) and a central part z; the
    only nonzero structure constants send v ^ v into the center, so the
    Jacobi identity holds exactly (every iterated bracket dies).
    """
    if n < 3:
        raise ValueError("need n >= 3 for a nonabelian two-step algebra")
    z = center_dim if center_dim is not None else max(1, n - 3)
    if not 1 <= z <= n - 2:
        raise ValueError(f"center_dim must lie in [1, {n - 2}]")
    m = n - z
    c = np.zeros((n, n, n))
    for i in range(m):
        for j in range(i + 1, m):
            c[i, j, m:] = rng.standard_normal(z)
    return LieBracket(Dimensions(0, n), c)
