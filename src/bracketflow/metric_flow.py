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
forward, and it comes with the factor: LAPACK's dtrtri inverts the upper
Cholesky factor from dpotrf, and the symmetric square root V W^1/2 V^T has
the inverse V W^-1/2 V^T from the same eigendecomposition.  The flow is
integrated on the bracket flow's monitored stepping loop (`flow._drive`),
with the package's Dormand-Prince 5(4) stepper (`stepper.DormandPrince54`)
on the flat n x n matrix.  The two flows are one flow in two coordinates,
so they share the scale-free stop rule on R (`flow.STOP_REL`), the
singular-time estimate from the stop sample and the far bound n / (2|R|)
on it.  They can be compared through their isometry invariants (scalar
curvature, Ricci spectra, singularity verdicts), which the equivalence of
the flows says must agree.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .algebra import LieBracket, _transform_tensor
from .algebra import transform_bracket  # noqa: F401  (not called here; flowbench's tracer looks it up on this module)
from .curvature import _ricci_from_tensor
from .stepper import DormandPrince54 as RK45  # called by this name so that flowbench can trace the stepper

# DenseSolution and integrate are called by these names so that flowbench can trace them.
from .flow import DenseSolution, IntegratorOptions, Verdict, _abs_tol, _Checkpoints, _drive, _end_time, integrate

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

    Series are kept at every sample, one per accepted step, with the
    stepper's raw states; `scalar_R` and `ric_eigs`, the sorted Ricci
    spectra, are read off the stacked Ricci matrices once, at the end, the
    spectra in one batched call.  The verdict is
    built from the stop sample as the bracket flow's is (`flow._drive`), so
    its fields mean the same on both flows.  `checkpoints` is a lazy
    read-only Sequence[MetricState] over those states, built on access like
    `Trajectory.checkpoints`.  Times are physical: decreasing for backward
    runs.
    """

    direction: str
    horizon: float
    bracket: LieBracket
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


def _require_finite(p: np.ndarray) -> None:
    # LAPACK's dpotrf reports success on NaN input, so a non-finite metric
    # would pass the factorization and poison every result downstream.
    if not np.all(np.isfinite(p)):
        raise NonSPDError("metric matrix has a non-finite entry")


def _factor(p: np.ndarray, how: str) -> tuple[np.ndarray, np.ndarray]:
    """(L, L^-1) for a matrix L with P = L^T L.

    'cholesky' gives the upper Cholesky factor (dpotrf) and its triangular
    inverse (dtrtri); 'sqrt' gives the symmetric square root and its inverse
    from one eigendecomposition.

    Raises:
        NonSPDError: P is not positive-definite.
    """
    if how == "cholesky":
        ell, info = dpotrf(p, lower=0)
        if info != 0:
            raise NonSPDError(f"metric matrix is not positive-definite (dpotrf info = {info})")
        ell_inv, info = dtrtri(ell, lower=0)
        if info != 0:
            raise NonSPDError(f"Cholesky factor of the metric matrix is singular (dtrtri info = {info})")
        return ell, ell_inv
    if how == "sqrt":
        w, v = np.linalg.eigh(p)
        if np.min(w) <= 0:
            raise NonSPDError(f"metric matrix has eigenvalue {np.min(w):.3e} <= 0")
        root = np.sqrt(w)
        return (v * root) @ v.T, (v / root) @ v.T
    raise ValueError(f"unknown factorization {how!r}")


def metric_ricci(mu0: LieBracket, p: np.ndarray, factor: str = "cholesky") -> tuple[np.ndarray, float]:
    """Ricci operator and scalar curvature of the metric P over the bracket mu0.

    Args:
        mu0: fixed bracket with q = 0.
        p: symmetric positive-definite matrix on p.
        factor: 'cholesky' or 'sqrt'; the output is gauge-independent of this
            choice up to rounding.

    Returns:
        (ric_operator, scalar): operator in the original frame, and its trace.

    Raises:
        NonSPDError: when `p` is not positive-definite or has a non-finite
            entry.
    """
    _require_q0(mu0)
    n = mu0.dims.n
    p = np.asarray(p, dtype=float)
    if p.shape != (n, n):
        raise ValueError(f"metric matrix must be {n} x {n}")
    _require_finite(p)
    ric, ell = _pushed_ric(mu0, p, factor)
    return np.linalg.solve(ell, ric @ ell), float(ric.trace())


def _pushed_ric(mu0: LieBracket, p: np.ndarray, factor: str = "cholesky"):
    # Internal, and called by this name so that flowbench can trace it.
    # Returns (ric, L): Ric_{L.mu0} of the pushed bracket (symmetric, same
    # spectrum as RicOp(P) = L^-1 ric L) and the factor L of P = L^T L, with
    # which the flow's RHS is -2 P RicOp(P) = -2 L^T ric L.  Callers that
    # read R take the trace themselves; the RK stages do not.
    # L^-1 enters only the push-forward and comes with L from `_factor`, so
    # nothing here solves or inverts.  May raise NonSPDError.
    ell, ell_inv = _factor(_sym(p), factor)
    return _ricci_from_tensor(_transform_tensor(mu0.c, ell, ell_inv), 0), ell


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

    Raises:
        ValueError: the direction is unknown or the horizon is not finite and
            positive.
        NonSPDError: `p0` is not positive-definite or has a non-finite entry.
        StiffnessError: step size underflowed away from a singular metric.
        FlowError: the step budget was exhausted.
    """
    opts = opts or IntegratorOptions()
    _require_q0(mu0)
    t_end = _end_time(direction, horizon)
    n = mu0.dims.n
    p0 = _sym(np.asarray(p0, dtype=float))
    _require_finite(p0)
    lam0 = float(np.min(np.linalg.eigvalsh(p0)))
    if lam0 <= 0:
        raise NonSPDError(f"initial metric has eigenvalue {lam0:.3e} <= 0")

    def fun(_t, y):
        try:
            ric, ell = _pushed_ric(mu0, y.reshape(n, n))
        except NonSPDError:
            return np.full(n * n, np.nan)
        # -2 P RicOp(P) = -2 L^T ric L, symmetrised.
        return _sym(-2.0 * (ell.T @ ric @ ell)).ravel()

    ts, rics = [], []
    states: list[np.ndarray] = []

    def record(t, y):
        # Keeps y itself: the stepper never writes an array it has handed out.
        # Keeps Ric, whose traces and spectra are read once at the end, and
        # returns it for `_drive`'s stop rule and verdict.
        ric = _pushed_ric(mu0, y.reshape(n, n))[0]
        ts.append(t)
        rics.append(ric)
        states.append(y)
        return ric

    record(0.0, p0.ravel())
    atol = _abs_tol(opts, float(np.linalg.norm(p0)))
    solver = RK45(fun, 0.0, p0.ravel().copy(), t_bound=t_end, rtol=opts.rel_tol, atol=atol)
    verdict, segments = _drive(solver, opts, lambda solver: record(solver.t, solver.y), n)
    t_arr = np.array(ts)
    ric_arr = np.array(rics)
    dense = DenseSolution([0.0] + [seg.t for seg in segments], segments) if opts.collect_dense else None
    return MetricTrajectory(
        direction=direction,
        horizon=horizon,
        bracket=mu0,
        t=t_arr,
        scalar_R=np.trace(ric_arr, axis1=1, axis2=2),
        ric_eigs=np.linalg.eigvalsh(ric_arr),
        checkpoints=_Checkpoints(t_arr, states, lambda t, y: MetricState(t, _sym(y.reshape(n, n)))),
        verdict=verdict,
        dense=dense,
    )


def _comparison_grid(t_cap: float, n_linear: int = 48, n_log: int = 48) -> np.ndarray:
    lin = np.linspace(0.0, 0.9 * t_cap, n_linear, endpoint=False)
    log = t_cap - np.geomspace(0.1 * t_cap, t_cap * 1e-3, n_log)
    return np.unique(np.concatenate([lin, log, [t_cap]]))


def equivalence_check(
    mu0: LieBracket,
    horizon: float,
    opts: IntegratorOptions | None = None,
) -> float:
    """Largest isometry-invariant gap between the two flows from matched data.

    Runs the bracket flow from mu0 and the metric flow from the identity
    metric over mu0, then compares scalar curvature and sorted Ricci spectra
    on a shared grid, reading each flow's dense output once for the whole
    grid.  An immortal pair is compared over the full horizon; a
    singular pair over the first `COVERAGE` fraction of the common interval
    (see the constant for why).  Returns the maximum gap, relative to
    max(1, |R|).

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
    grid = _comparison_grid(COVERAGE * t_end if singular else t_end)
    n = mu0.dims.n
    # One contiguous row per grid time, as a single-time dense call returns it.
    states_b = np.ascontiguousarray(bt.dense(grid).T)
    states_m = np.ascontiguousarray(mt.dense(grid).T)
    # Both flows' Ricci matrices stacked, shape (2, grid, n, n): one trace and
    # one batched spectrum for the whole grid.
    rics = np.array([
        [_ricci_from_tensor(c.reshape(mu0.c.shape), 0) for c in states_b],
        [_pushed_ric(mu0, p.reshape(n, n))[0] for p in states_m],
    ])
    r_b, r_m = np.trace(rics, axis1=2, axis2=3)
    eig_b, eig_m = np.linalg.eigvalsh(rics)
    scale = np.maximum(1.0, np.maximum(np.abs(r_b), np.abs(r_m)))
    eig_gap = np.max(np.abs(eig_b - eig_m), axis=1)
    return float(max(np.max(np.abs(r_b - r_m) / scale), np.max(eig_gap / scale)))
