"""Metric-side homogeneous Ricci flow over a fixed Lie bracket (q = 0).

The metric is encoded by a symmetric positive-definite matrix P with
<X, Y>_g = <P X, Y> in the fixed frame.  Any factor L with P = L^T L turns
the metric computation into a bracket computation: the pushed bracket
L.mu has the same curvature in the flat background metric, so

    RicOp(P) = L^-1 Ric_{L.mu} L,    scalar = tr Ric_{L.mu},

independent of which factor L is chosen.  The flow dP/dt = -2 P RicOp(P)
is then integrated on the bracket flow's monitored stepping loop
(`flow._drive`) with its own stop rule, and the two flows can be compared
through their isometry invariants (scalar curvature, Ricci spectra,
singularity verdicts), which the equivalence of the flows says must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import RK45

from .algebra import LieBracket, transform_bracket
from .curvature import _ricci_from_tensor
from .flow import DenseSolution, IntegratorOptions, Verdict, _blowup_verdict, _drive, _end_time, integrate

__all__ = [
    "MetricState",
    "MetricTrajectory",
    "NonSPDError",
    "metric_ricci",
    "metric_flow_integrate",
    "equivalence_check",
]

_EPS = np.finfo(float).eps
# Stop rule of `metric_flow_integrate` (see its docstring).
EIG_FLOOR = 1e-9
SCALAR_THRESHOLD = 1e12
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
    direction: str
    horizon: float
    bracket: LieBracket
    t: np.ndarray
    scalar_R: np.ndarray
    ric_eigs: np.ndarray
    p_min_eig: np.ndarray
    checkpoints: list[MetricState]
    verdict: Verdict
    dense: DenseSolution | None = None

    @property
    def n_samples(self) -> int:
        return len(self.t)


def _factor(p: np.ndarray, how: str) -> np.ndarray:
    """A matrix L with P = L^T L."""
    if how == "cholesky":
        try:
            return np.linalg.cholesky(p).T
        except np.linalg.LinAlgError as exc:
            raise NonSPDError(f"metric matrix is not positive-definite: {exc}") from exc
    if how == "sqrt":
        w, v = np.linalg.eigh(p)
        if np.min(w) <= 0:
            raise NonSPDError(f"metric matrix has eigenvalue {np.min(w):.3e} <= 0")
        return (v * np.sqrt(w)) @ v.T
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
        NonSPDError: when `p` is not positive-definite.
    """
    if mu0.dims.q != 0:
        raise ValueError("metric-side flow is implemented for q = 0 only")
    n = mu0.dims.n
    p = np.asarray(p, dtype=float)
    if p.shape != (n, n):
        raise ValueError(f"metric matrix must be {n} x {n}")
    _, scalar, ric_op = _pushed_ric(mu0, p, factor)
    return ric_op, scalar


def _pushed_ric(mu0: LieBracket, p: np.ndarray, factor: str = "cholesky"):
    # Internal: Ricci of the pushed bracket (symmetric, same spectrum as the
    # operator), its trace, and the operator itself; may raise NonSPDError.
    ell = _factor(0.5 * (p + p.T), factor)
    ric, scalar, _ = _ricci_from_tensor(transform_bracket(mu0, ell).c, 0)
    return ric, scalar, np.linalg.solve(ell, ric @ ell)


def metric_flow_integrate(
    mu0: LieBracket,
    p0: np.ndarray,
    direction: str = "forward",
    horizon: float = 10.0,
    opts: IntegratorOptions | None = None,
) -> MetricTrajectory:
    """Integrate dP/dt = -2 P RicOp(P) over a fixed bracket.

    Declares a singular-metric verdict when the smallest eigenvalue of P
    falls below `EIG_FLOOR` times its initial value or |R| exceeds
    `SCALAR_THRESHOLD`; the singular time is then fitted from the diverging
    |R| series.  Stages that leave the positive-definite cone evaluate to
    NaN, which the error controller treats as a rejected step, so the
    integrator approaches a degenerating metric geometrically instead of
    stepping across it.  A backward run steps to the physical time -horizon.

    Raises:
        ValueError: the direction is unknown or the horizon is not finite and
            positive.
        StiffnessError: step size underflowed away from a singular metric.
        FlowError: the step budget was exhausted, or a declared singularity
            left too short a tail to fit the singular time.
    """
    opts = opts or IntegratorOptions()
    if mu0.dims.q != 0:
        raise ValueError("metric-side flow is implemented for q = 0 only")
    t_end = _end_time(direction, horizon)
    n = mu0.dims.n
    p0 = 0.5 * (np.asarray(p0, dtype=float) + np.asarray(p0, dtype=float).T)
    lam0 = float(np.min(np.linalg.eigvalsh(p0)))
    if lam0 <= 0:
        raise NonSPDError(f"initial metric has eigenvalue {lam0:.3e} <= 0")

    def fun(_t, y):
        p = y.reshape(n, n)
        try:
            ric_op = _pushed_ric(mu0, p)[2]
        except (NonSPDError, np.linalg.LinAlgError):
            return np.full(n * n, np.nan)
        dp = -2.0 * (p @ ric_op)
        dp = 0.5 * (dp + dp.T)
        return dp.ravel()

    ts, scalars, eigs, lam_mins = [], [], [], []
    checkpoints: list[MetricState] = []

    def record(t, y):
        p = 0.5 * (y.reshape(n, n) + y.reshape(n, n).T)
        ric, scalar, _ = _pushed_ric(mu0, p)
        lam = float(np.min(np.linalg.eigvalsh(p)))
        ts.append(t)
        scalars.append(scalar)
        eigs.append(np.sort(np.linalg.eigvalsh(ric)))
        lam_mins.append(lam)
        checkpoints.append(MetricState(t, p))
        return scalar, lam, p

    record(0.0, p0.ravel())
    norm_dp0 = float(np.linalg.norm(fun(0.0, p0.ravel())))
    h0 = 0.2 * np.linalg.norm(p0) / (norm_dp0 + _EPS)
    solver = RK45(
        fun,
        0.0,
        p0.ravel().copy(),
        t_bound=t_end,
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
        max_step=min(h0, horizon),
    )

    def on_step(solver):
        scalar, lam, p = record(solver.t, solver.y)
        # solver.f is the derivative at the accepted point (RK45's last stage).
        solver.max_step = 0.2 * np.linalg.norm(p) / (np.linalg.norm(solver.f) + _EPS)
        return lam < EIG_FLOOR * lam0 or abs(scalar) > SCALAR_THRESHOLD

    singular, segments = _drive(
        solver, opts, on_step, lambda: lam_mins[-1] < 1e3 * EIG_FLOOR * lam0 or abs(scalars[-1]) > SCALAR_THRESHOLD
    )

    t_arr = np.array(ts)
    if singular:
        verdict = _blowup_verdict(t_arr, np.abs(np.array(scalars)))
    else:
        verdict = Verdict(kind="immortal")

    dense = DenseSolution([0.0] + [seg.t for seg in segments], segments) if opts.collect_dense else None
    return MetricTrajectory(
        direction=direction,
        horizon=horizon,
        bracket=mu0,
        t=t_arr,
        scalar_R=np.array(scalars),
        ric_eigs=np.array(eigs),
        p_min_eig=np.array(lam_mins),
        checkpoints=checkpoints,
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
    on a shared grid.  An immortal pair is compared over the full horizon; a
    singular pair over the first `COVERAGE` fraction of the common interval
    (see the constant for why).  Returns the maximum gap, relative to
    max(1, |R|).
    """
    base = opts or IntegratorOptions()
    run_opts = replace(base, collect_dense=True)
    bt = integrate(mu0, "forward", horizon, run_opts)
    mt = metric_flow_integrate(mu0, np.eye(mu0.dims.n), "forward", horizon, run_opts)

    t_end = min(abs(bt.t[-1]), abs(mt.t[-1]))
    singular = bt.verdict.kind == "blowup" or mt.verdict.kind == "blowup"
    grid = _comparison_grid(COVERAGE * t_end if singular else t_end)
    n = mu0.dims.n
    gap = 0.0
    for t in grid:
        ric_b, r_b, _ = _ricci_from_tensor(bt.dense(t).reshape(mu0.c.shape), 0)
        eig_b = np.sort(np.linalg.eigvalsh(ric_b))
        ric_m, r_m, _ = _pushed_ric(mu0, mt.dense(t).reshape(n, n))
        eig_m = np.sort(np.linalg.eigvalsh(ric_m))
        scale = max(1.0, abs(r_b), abs(r_m))
        gap = max(gap, abs(r_b - r_m) / scale)
        gap = max(gap, float(np.max(np.abs(eig_b - eig_m))) / scale)
    return gap
