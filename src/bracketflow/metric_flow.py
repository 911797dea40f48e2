"""Metric-side homogeneous Ricci flow over a fixed Lie bracket (q = 0).

The metric is encoded by a symmetric positive-definite matrix P with
<X, Y>_g = <P X, Y> in the fixed frame.  Any factor L with P = L^T L turns
the metric computation into a bracket computation: the pushed bracket
L.mu has the same curvature in the flat background metric, so

    RicOp(P) = L^-1 Ric_{L.mu} L,    scalar = tr Ric_{L.mu},

independent of which factor L is chosen.  The flow dP/dt = -2 P RicOp(P)
has, with P = L^T L, the right-hand side

    -2 P RicOp(P) = -2 L^T Ric_{L.mu} L,

so it takes no linear solve.  L^-1 is needed only to push the bracket
forward, and it comes with the factor: the package factors by Cholesky, and
LAPACK's dtrtri inverts the upper factor from dpotrf.  A run reads Ric of
L.mu through the stacked table (`curvature._ricci_table`) of the support
S_nu that every pushed bracket of the run stays on, exactly: the i < j
entries reachable from the patterns of mu and P0, found once per run on
patterns alone (`_pushed_support`).  From the identity metric a two-step
nilpotent bracket pushes onto the bracket flow's own support, 9 of 90
entries at n = 6, where the whole half's Ricci took the GEMM kernel; from
a dense metric S_nu is mostly the whole half, read as before.  The flow is
integrated on the bracket flow's monitored stepping loop (`flow._drive`),
with the package's Dormand-Prince 5(4) stepper (`stepper.DormandPrince54`)
on the flat n x n matrix; `_drive` keeps the samples, and the metric flow's
only per-sample work is Ric of the pushed bracket.  That is no assembly of
its own: the RHS keeps the Ric it computed for the last array it was
handed, and the stepper's last stage is evaluated at the new state, the
very array `_drive` samples.  The two flows are one
flow in two coordinates, so they share the scale-free stop rule on R
(`flow.STOP_REL`), the singular-time estimate from the stop sample and the
far bound n / (2|R|) on it.  They can be compared through their isometry
invariants (scalar curvature, Ricci spectra, singularity verdicts), which
the equivalence of the flows says must agree.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .algebra import LieBracket, _half_indices, _transform_tensor
from .algebra import transform_bracket  # noqa: F401  (not called here; flowbench's tracer looks it up on this module)
from .curvature import _ricci_from_tensor, _ricci_gemm
from .stepper import DormandPrince54 as RK45  # called by this name so that flowbench can trace the stepper

# DenseSolution and integrate are called by these names so that flowbench can trace them.
from .flow import DenseSolution, IntegratorOptions, Verdict, integrate
from .flow import _abs_tol, _Checkpoints, _drive, _end_time, _ratio

__all__ = [
    "MetricState",
    "MetricTrajectory",
    "NonSPDError",
    "metric_ricci",
    "metric_flow_integrate",
    "equivalence_check",
]

# Fraction of a singular pair's common interval that `equivalence_check`
# compares: inside the remaining sliver the relative comparison divides by the
# (tiny, independently accumulated) singular-time drift of each flow and
# measures nothing about their agreement.
COVERAGE = 0.999


class NonSPDError(ValueError):
    """The metric matrix is not symmetric positive-definite."""


@dataclass(frozen=True)
class MetricState:
    """Inner product <X,Y>_g = <P X, Y> at time t over a fixed bracket."""

    t: float
    p_matrix: np.ndarray


@dataclass
class MetricTrajectory:
    """Sampled metric-flow solution.

    The samples are those `flow._drive` keeps for both flows, at t = 0 and
    after each accepted step, with the stepper's raw states; `scalar_R` is
    read off their stacked Ricci matrices as the bracket flow's is, and
    `ric_eigs`, the sorted Ricci spectra, in one batched call.  The verdict
    is built from the stop sample as the bracket flow's is, so its fields
    mean the same on both flows.  `checkpoints` is a lazy read-only
    Sequence[MetricState] over those states, built on access like
    `Trajectory.checkpoints`.  Times are physical: decreasing for backward
    runs.
    """

    direction: str
    horizon: float
    t: np.ndarray
    scalar_R: np.ndarray
    ric_eigs: np.ndarray
    checkpoints: Sequence[MetricState]
    verdict: Verdict
    dense: DenseSolution | None = None

    @property
    def n_samples(self) -> int:
        return len(self.t)


def _require_q0(mu0: LieBracket) -> None:
    if mu0.dims.q != 0:
        raise ValueError("metric-side flow is implemented for q = 0 only")


def _sym(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _metric_matrix(mu0: LieBracket, p) -> np.ndarray:
    # The caller's metric over mu0 as a float n x n array with finite
    # entries, checked before any factorization or step.  LAPACK's dpotrf
    # reports success on NaN input, so a non-finite metric would pass the
    # factorization and poison every result downstream.
    _require_q0(mu0)
    n = mu0.dims.n
    p = np.asarray(p, dtype=float)
    if p.shape != (n, n):
        raise ValueError(f"metric matrix must be {n} x {n}, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise NonSPDError("metric matrix has a non-finite entry")
    return p


def _factor(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L, L^-1) for the upper Cholesky factor L of P = L^T L.

    L comes from dpotrf and its triangular inverse from dtrtri.

    Raises:
        NonSPDError: P is not positive-definite.
    """
    ell, info = dpotrf(p, lower=0)
    if info != 0:
        raise NonSPDError(f"metric matrix is not positive-definite (dpotrf info = {info})")
    ell_inv, info = dtrtri(ell, lower=0)
    if info != 0:
        raise NonSPDError(f"Cholesky factor of the metric matrix is singular (dtrtri info = {info})")
    return ell, ell_inv


def metric_ricci(mu0: LieBracket, p: np.ndarray) -> tuple[np.ndarray, float]:
    """Ricci operator and scalar curvature of the metric P over the bracket mu0.

    The operator L^-1 Ric_{L.mu0} L does not depend on the factor L of
    P = L^T L; it is computed with the Cholesky factor.

    Args:
        mu0: fixed bracket with q = 0.
        p: symmetric positive-definite n x n matrix on p.

    Returns:
        (ric_operator, scalar): operator in the original frame, and its trace.

    Raises:
        ValueError: mu0 has q > 0, or `p` is not an n x n matrix.
        NonSPDError: when `p` is not positive-definite or has a non-finite
            entry.
    """
    ric, ell = _pushed_ric(mu0, _metric_matrix(mu0, p))
    return np.linalg.solve(ell, ric @ ell), float(ric.trace())


def _pushed_ric(mu0: LieBracket, p: np.ndarray, support: tuple | None = None):
    # Internal, and called by this name so that flowbench can trace it.
    # Returns (ric, L): Ric_{L.mu0} of the pushed bracket (symmetric, same
    # spectrum as RicOp(P) = L^-1 ric L) and the factor L of P = L^T L, with
    # which the flow's RHS is -2 P RicOp(P) = -2 L^T ric L.  Callers that
    # read R take the trace themselves; the RK stages do not.
    # L^-1 enters only the push-forward and comes with L from `_factor`, so
    # nothing here solves or inverts.  Ric is read through the table of
    # `support`, a support that holds L.mu0 (`_pushed_support`), derived
    # from p's own pattern when None.  May raise NonSPDError.
    ell, ell_inv = _factor(_sym(p))
    if support is None:
        support = _pushed_support(mu0, p)
    return _ricci_from_tensor(_transform_tensor(mu0.c, ell, ell_inv), 0, support), ell


def _pushed_support(mu0: LieBracket, p: np.ndarray) -> tuple:
    """S_nu: the i < j entries that a pushed bracket L.mu0 can reach on a metric-flow run from p.

    Every metric a run steps through, stages included, is p plus sums of
    derivatives -2 L^T Ric L, so its pattern lies in the least pattern that
    holds p's and the diagonal and is closed under the derivative's.  That
    closure is found on patterns alone (`_support_closure`), and S_nu is the
    i < j half of the pushed bracket's pattern on it.  Where a pattern is
    False the value is an exact zero: dpotrf and dtrtri on a matrix with
    exact zeros return exact zeros where the symbolic factor and its inverse
    do, and a product with an exact-zero factor is exactly 0.  So every
    finite L.mu0 of the run is exactly 0 on the half off S_nu, and Ric read
    through S_nu's table is Ric read through the whole half's, up to
    summation order.  A non-finite metric still gives a non-finite
    derivative: its L reaches -2 L^T Ric L whatever Ric reads.  Cached per
    pattern of mu0 and p.
    """
    d = mu0.dims.d
    live = np.flatnonzero(mu0.c.ravel()[_half_indices(d)[0]])
    return _support_closure(d, tuple(live.tolist()), tuple(np.flatnonzero(p).tolist()))


@lru_cache(maxsize=32)
def _support_closure(d: int, live: tuple, pattern: tuple) -> tuple:
    # live: the half positions where mu0 is nonzero; pattern: flat indices of
    # p's nonzero entries.  Every product below is boolean, so it is the
    # pattern of the float operation it mirrors.
    upper, mirror = _half_indices(d)
    c = np.zeros(d**3, dtype=bool)
    c[upper[list(live)]] = c[mirror[list(live)]] = True
    c = c.reshape(d, d, d)
    p = np.eye(d, dtype=bool)
    p.flat[list(pattern)] = True
    p |= p.T
    while True:
        # the upper Cholesky factor: U[k, j] = (P[k, j] - sum_{l<k} U[l, k] U[l, j]) / U[k, k]
        ell = np.triu(p)
        for k in range(1, d):
            ell[k, k:] |= (ell[:k, k, None] & ell[:k, k:]).any(axis=0)
        # its inverse: U^-1[i, j] is reached by a path from i to j in U's graph
        inv, reach = ell, ell @ ell
        while not np.array_equal(reach, inv):
            inv, reach = reach, reach @ ell
        # the pushed bracket, by `_transform_tensor`'s own three mode
        # products; the table reads its i < j half and mirrors it, so its
        # (i, i, k) entries, 0 up to rounding, are never read
        nu = _transform_tensor(c, ell, inv)
        nu[np.arange(d), np.arange(d)] = False
        half = np.flatnonzero(nu.ravel()[upper])
        # Ric of it: the terms of `curvature._ricci_gemm`, G = A1 (A1 + A2)^T
        # + A3 A3^T and ad H, symmetrized, then the derivative L^T Ric L
        rows = nu.reshape(d, d * d)
        a3 = nu.reshape(d * d, d)
        g = rows @ (rows | nu.transpose(0, 2, 1).reshape(d, d * d)).T | a3.T @ a3
        g |= (nu[:, np.arange(d), np.arange(d)].any(axis=1) @ rows).reshape(d, d)
        grown = p | ell.T @ (g | g.T) @ ell
        if np.array_equal(grown, p):
            return tuple(half.tolist())
        p = grown


def metric_flow_integrate(
    mu0: LieBracket,
    p0: np.ndarray,
    direction: str = "forward",
    horizon: float = 10.0,
    opts: IntegratorOptions | None = None,
) -> MetricTrajectory:
    """Integrate dP/dt = -2 P RicOp(P) over a fixed bracket.

    Runs on the bracket flow's stepping loop (`flow._drive`), which stops
    with its rule and builds its verdict: a singularity is declared once R
    has the sign of the time direction and n / (2|R|) < `flow.STOP_REL` |t|,
    after an accepted step or at a step floor, and the verdict is read off
    the stop sample alone: omega_est = t_stop + R / (2 tr Ric^2) inside the
    enclosure [t_stop, far_bound], far_bound = t_stop +- n / (2|R(t_stop)|),
    as on the bracket flow.  The rule is scale free, as
    the flow is: P0 / c^2 over horizon / c^2 gives the same verdict at
    singular time omega / c^2.  Stages that leave the positive-definite cone
    evaluate to NaN, and the stepper rejects an attempt whose error norm is
    not finite and retries at `stepper.MIN_FACTOR` = 0.2 times the step, so
    the integrator approaches a degenerating metric geometrically instead of
    stepping across it.  A backward run steps to the physical time -horizon.
    Ric of each pushed bracket is read on the run's support S_nu
    (`_pushed_support`), computed once before the first step: every finite
    pushed bracket of the run is exactly 0 off it, so the result is the
    whole half's up to summation order, and a non-finite stage still
    evaluates to a non-finite derivative.

    Raises:
        ValueError: mu0 has q > 0, `p0` is not an n x n matrix, the
            direction is unknown or the horizon is not finite and positive.
        NonSPDError: `p0` is not positive-definite or has a non-finite entry.
        StiffnessError: step size underflowed away from a singular metric.
        FlowError: the step budget `flow.MAX_STEPS` was exhausted.
    """
    opts = opts or IntegratorOptions()
    p0 = _sym(_metric_matrix(mu0, p0))
    t_end = _end_time(direction, horizon)
    n = mu0.dims.n
    lam0 = float(np.min(np.linalg.eigvalsh(p0)))
    if lam0 <= 0:
        raise NonSPDError(f"initial metric has eigenvalue {lam0:.3e} <= 0")
    # Every pushed bracket of the run lies on this support.
    support = _pushed_support(mu0, p0)
    # The array `fun` was last handed and the Ric it computed there (None
    # off the positive-definite cone).  The stepper never writes an array it
    # has handed out, so the Ric still belongs to that array.
    last: list = [None, None]

    def fun(_t, y):
        last[:] = y, None
        try:
            ric, ell = _pushed_ric(mu0, y.reshape(n, n), support)
        except NonSPDError:
            return np.full(n * n, np.nan)
        last[1] = ric
        # -2 P RicOp(P) = -2 L^T ric L, symmetrised: -(a + a^T) is
        # 0.5 (-2a + (-2a)^T) bit for bit, both scalings being powers of 2.
        a = ell.T.dot(ric).dot(ell)
        return (-(a + a.T)).ravel()

    def sample(_t, y):
        # An accepted state is the array of its step's last stage, so its Ric
        # is that stage's; only the initial state is assembled here.
        if y is last[0] and last[1] is not None:
            return last[1]
        return _pushed_ric(mu0, y.reshape(n, n), support)[0]

    atol = _abs_tol(opts, float(np.linalg.norm(p0)))
    solver = RK45(fun, 0.0, p0.ravel().copy(), t_bound=t_end, rtol=opts.rel_tol, atol=atol)
    run = _drive(solver, opts, sample, n)
    return MetricTrajectory(
        direction=direction,
        horizon=horizon,
        t=run.t,
        scalar_R=run.scalar_R,
        ric_eigs=np.linalg.eigvalsh(run.ric),
        checkpoints=_Checkpoints(run.t, run.states, lambda t, y: MetricState(t, _sym(y.reshape(n, n)))),
        verdict=run.verdict,
        dense=DenseSolution(run.t, run.segments) if run.segments else None,
    )


def _comparison_grid() -> np.ndarray:
    # The comparison times on [0, 1], to be scaled to the compared interval:
    # a product with its end scales exactly, geomspace(0.1 t, 1e-3 t) does not.
    lin = np.linspace(0.0, 0.9, 48, endpoint=False)
    log = 1.0 - np.geomspace(0.1, 1e-3, 48)
    return np.unique(np.concatenate([lin, log, [1.0]]))


def equivalence_check(
    mu0: LieBracket,
    horizon: float,
    opts: IntegratorOptions | None = None,
) -> float:
    """Largest isometry-invariant gap between the two flows from matched data.

    Runs the bracket flow from mu0 and the metric flow from the identity
    metric over mu0, then compares scalar curvature and sorted Ricci spectra
    on a shared grid, reading each flow's dense output once for the whole
    grid and its Ricci matrices there in one batched call of the GEMM kernel
    (`curvature._ricci_gemm`) per flow; the grid metrics are factored one by
    one (`_factor`), so a grid metric off the cone raises NonSPDError.  An
    immortal pair is compared over the full horizon; a
    singular pair over the first `COVERAGE` fraction of the common interval
    (see the constant for why).  Returns the maximum gap, each grid time's
    relative to sqrt(n) max(|Ric_b|, |Ric_m|) in the Frobenius norm there:
    that is at least |R| (Cauchy-Schwarz), equal to it on an Einstein
    metric, and 0 only where both Ric are 0, where the gap reads 0.  So the
    gap does not change under mu0 -> c mu0 with horizon / c^2 (bit for bit
    when c is a power of 2).

    Raises:
        ValueError: the bracket has isotropy (q > 0), before either flow runs.
    """
    _require_q0(mu0)
    base = opts or IntegratorOptions()
    run_opts = replace(base, collect_dense=True)
    bt = integrate(mu0, "forward", horizon, run_opts)
    mt = metric_flow_integrate(mu0, np.eye(mu0.dims.n), "forward", horizon, run_opts)

    t_end = min(abs(bt.t[-1]), abs(mt.t[-1]))
    singular = bt.verdict.kind == "blowup" or mt.verdict.kind == "blowup"
    grid = (COVERAGE * t_end if singular else t_end) * _comparison_grid()
    n = mu0.dims.n
    # One contiguous tensor or metric per grid time.
    tensors_b = np.ascontiguousarray(bt.dense(grid).T).reshape((-1,) + mu0.c.shape)
    ell, ell_inv = map(np.array, zip(*(_factor(_sym(p.reshape(n, n))) for p in mt.dense(grid).T)))
    # Both flows' Ricci matrices stacked, shape (2, grid, n, n): one trace and
    # one batched spectrum for the whole grid.
    rics = np.array([_ricci_gemm(tensors_b, 0), _ricci_gemm(_transform_tensor(mu0.c, ell, ell_inv), 0)])
    r_b, r_m = np.trace(rics, axis1=2, axis2=3)
    eig_b, eig_m = np.linalg.eigvalsh(rics)
    scale = np.sqrt(n) * np.max(np.linalg.norm(rics, axis=(2, 3)), axis=0)
    eig_gap = np.max(np.abs(eig_b - eig_m), axis=1)
    return float(max(np.max(_ratio(np.abs(r_b - r_m), scale)), np.max(_ratio(eig_gap, scale))))
