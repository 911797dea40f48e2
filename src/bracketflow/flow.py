"""Integration of the bracket flow and singularity diagnostics.

The flow is d/dt mu = -pi(diag(0, Ric_mu)) mu.  Trajectories are advanced
with the package's embedded Dormand-Prince 5(4) pair (`stepper`) by
`_drive`, the monitored stepping loop this module shares with the metric
flow: it owns the step budget, solver failures, dense output, the stop
rule and the verdict, which it reads off the Ricci matrix a per-step
callback returns.

Every run has one state layout.  The flow never leaves the span V_S of a
flow-invariant support S: the i < j entries nonzero at the start, grown
until the RHS maps V_S into itself (`curvature._flow_table`); for a
two-step nilpotent bracket that is the v ^ v -> z block, 30 of the 1014
half entries at n = 13.  The state is the entries u = c.ravel()[upper] on S
(`_to_state`), and one RHS evaluation (`_default_rhs_tensor`) reads the
stacked table of Ric and the RHS on S with no tensor gather and no mirror.
On a dense stack that is one product, written into a buffer the run owns
(`_rhs_scratch`: the cached table is shared by every run on its support),
and two small products on the buffer's two fixed views.  Over
`curvature.DENSE_TABLE_MAX_ENTRIES`, where the stack is mostly zeros, it is
one gather of u through the table's read-only index and two bincounts over
the nonzero coefficients (675 of 111,600 at n = 13).  Every support has a
table, the zero bracket's being the empty one.  The error norm counts each
entry of u twice, so it is the RMS over all d^3 tensor entries, as on the
full tensor.  Only `Trajectory.checkpoints` and the dense output rebuild
the tensor (`_to_tensor`), by writing u at the support's flat indices and
-u at their mirrors (`algebra._from_half`).

`_drive` keeps the samples of a run of either flow, at t = 0 and after
each accepted step: the time, the stepper's raw state and the Ricci matrix
a per-sample callback returns, stacked once at the end, where R = tr Ric
is read off the stack for both flows (`_Run`).  The bracket flow's callback
adds what is its own: one RHS evaluation, for the derivative and Ric, the
drift check, and one row per sample of the three admissibility residuals.
It keeps that derivative (`Trajectory.rhs`), off which `estimate_report`
reads dR/dt by the chain rule; |mu| and |dmu/dt| are taken of the kept
states and derivatives once per run (`_norms`), divided by a power of 2
fixed by the initial state, so that their squares neither overflow nor
underflow.  The residuals are read off u itself, through the
forms built once per support (`curvature._residual_forms`): only the
Jacobi, h1 and h3 rows that are not identically 0 on V_S, and none at all
on a two-step nilpotent support, where the check is vacuous: with no row
the monitor makes no check and writes exact zeros.
`Trajectory.residual_rows` says how many rows that is.  No LieBracket is
built; the states stay raw arrays, and `Trajectory.checkpoints` wraps them
as FlowStates only when read.  The zero bracket, an exact fixed point, is
not stepped: its run is 33 stationary samples with Ric = 0 and a zero
dense output, built into a Trajectory as every other run is.

The stop rule is scale free and the same for both flows.  Along either
flow dR/dt = 2 tr Ric^2 >= (2/n) R^2, so once R has the sign of the time
direction (R > 0 forward, R < 0 backward) the singularity comes within
n / (2|R|) (`_time_left`), and R blows up at every finite singular time.  A
finite-time singularity is declared when that bound falls below `STOP_REL`
|t|; a run that reaches the horizon is immortal.  `_drive` reads the rule
and the verdict of both flows off the Ricci matrix of the stop sample alone
(`_verdict`): the same identity gives d(1/R)/dt = -2 tr Ric^2 / R^2, and
one Newton step on 1/R from the last sample puts the singular time at
omega_est = t + R / (2 tr Ric^2).  It lies in the enclosure [t_stop,
far_bound], with far_bound = t_stop +- n / (2|R|); the far bound is
evaluated on the numerical solution, so it carries its error.
`fit_power_blowup` is an opt-in diagnostic of the growth exponent.
An immortal run whose R already has the sign of the time direction at the
horizon reports that far bound too.  Both directions step in physical time:
a backward run hands the stepper the end time -horizon.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    Dimensions,
    LieBracket,
    _from_half,
    _relative_residuals,
    bracket_norm,
    check_conditions,
)
from .curvature import _flow_table, _residual_forms, _scalar_rate, _StackedTable, koszul_ricci_oracle
from .curvature import _ricci_from_tensor  # noqa: F401  (flowbench's tracer looks it up on this module)
from .stepper import DenseStep, _pow2_scale
from .stepper import DormandPrince54 as RK45  # called by this name so that flowbench can trace the stepper

__all__ = [
    "IntegratorOptions",
    "FlowState",
    "Verdict",
    "Trajectory",
    "EstimateReport",
    "PowerLawFit",
    "FlowError",
    "StiffnessError",
    "DriftError",
    "bracket_flow_rhs",
    "integrate",
    "fit_power_blowup",
    "estimate_blowup_time",
    "estimate_report",
    "type_I_diagnostic",
    "DenseSolution",
]

# A run of either flow stops with a blowup once R has the sign of the time
# direction and the comparison bound n / (2|R|) on the time left is below
# STOP_REL |t| (`_drive`).
# Measured: the seed-0 n = 13 two-step nilpotent brackets run backward have
# n / (2|R|) of about 39 (omega - t) near the end, so at 1e-12 the stop
# point lies under the step floor and all three raise StiffnessError.  At
# 1e-10 every run passes, but the RHS calls of the benchmark's catalog and
# nilpotent workloads rise (31682 -> 33348 and 42326 -> 44489 against the
# earlier norm-threshold rule); at 1e-9 they fall (to 30527 and 41479).
# heisenberg3 backward stops at R = -4.59e9; 1e-8 would stop it at -4.5e8,
# short of acceptance criterion C2's R < -1e9.
STOP_REL = 1e-9
# The step budget of both flows: `_drive` raises FlowError when a run that
# holds more samples than this would step again.
MAX_STEPS = 200_000
# The fewest tail samples `fit_power_blowup` accepts.
MIN_TAIL_SAMPLES = 10
# Tail diagnostics skip the samples with |omega_est - t| below this fraction
# of |omega_est|: there the distance to the singular time is smaller than the
# error of omega_est itself (on su2_round forward omega_est - 1 = 1.7e-11,
# while the last samples lie about 1e-12 from it).
TAIL_GAP_REL = 1e-9


class FlowError(RuntimeError):
    """Integration could not be completed."""


class StiffnessError(FlowError):
    """Step size underflowed without meeting the blowup criteria."""


class DriftError(FlowError):
    """Admissibility residuals drifted beyond tolerance along the flow."""


@dataclass(frozen=True)
class IntegratorOptions:
    """Knobs for `integrate`: tolerances and dense output.

    None of them sets the singularity verdict, whose stop rule is scale free
    (see `STOP_REL`), and the step control has no absolute knob: the
    stepper's absolute tolerance is rel_tol / 100 of the initial state's
    norm (`_abs_tol`), and drift_tol and membership_tol, the admissibility
    check of the initial bracket, bound residuals relative to |mu| to their
    degree (`algebra._relative_residuals`), so the run of 2^k mu is admitted
    with mu and takes its steps bit for bit.  Construction raises
    ValueError unless every float field is a finite positive number and
    collect_dense a bool; a bool in a numeric field is refused, not read as
    0 or 1.  It also refuses membership_tol above drift_tol, naming both:
    the drift check reads the admissibility residuals, not their change, so
    a bracket admitted above drift_tol would fail it at its first step
    although nothing moved.  The step budget is not an option but the
    module constant `MAX_STEPS`.
    """

    rel_tol: float = 1e-10
    drift_tol: float = 1e-6
    membership_tol: float = DEFAULT_TOL
    collect_dense: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and (_is_bool(value) or not (np.isfinite(value) and value > 0)):
                raise ValueError(f"{f.name} must be finite and positive, got {value!r}")
        if not _is_bool(self.collect_dense):
            raise ValueError(f"collect_dense must be a bool, got {self.collect_dense!r}")
        if self.membership_tol > self.drift_tol:
            raise ValueError(f"membership_tol {self.membership_tol!r} exceeds drift_tol {self.drift_tol!r}")


def _is_bool(value) -> bool:
    return isinstance(value, (bool, np.bool_))


def _abs_tol(opts: IntegratorOptions, y0_norm: float) -> float:
    # The stepper's absolute tolerance of either flow: rel_tol / 100 of the
    # initial state's norm (1e-12 |y0| at the default rel_tol), so that it
    # scales with the state and the step control stays scale free.
    return opts.rel_tol / 100 * y0_norm


@dataclass(frozen=True)
class FlowState:
    """One checkpointed state of the flow."""

    t: float
    mu: LieBracket


@dataclass(frozen=True)
class Verdict:
    """Outcome of an integration.

    kind is 'immortal' (reached the horizon), 'blowup' (the stop rule
    fired) or 'flat' (the zero bracket, an exact fixed point).  All three
    fields are read at the stop sample, the same way for both flows
    (`_drive`).  For a blowup, omega_est = t_stop + R / (2 tr Ric^2) there,
    one Newton step on 1/R, and the enclosure of the singular time is
    [t_stop, far_bound] in time order (`estimate_blowup_time`):
    far_bound = t_stop +- n / (2|R(t_stop)|), from dR/dt >= (2/n) R^2, is
    the time it cannot follow (forward) or precede (backward).  At the stop
    the enclosure is shorter than `STOP_REL` |t_stop|, so t_stop is the near
    end: a comparison bound on the near side would lie within that width of
    it.  far_bound is evaluated on the numerical solution and carries its
    error: on the Einstein entries, which meet the inequality with equality,
    it lands about 1e-11 on the wrong side.  An immortal verdict carries
    far_bound, taken at the horizon, when R there has the sign of the time
    direction; otherwise it is None.
    """

    kind: str
    omega_est: float | None = None
    far_bound: float | None = None


class _Checkpoints(Sequence):
    """Read-only sequence of states over raw state arrays, each built on access.

    `make(t, y)` builds the state at time t from the raw array y (a FlowState
    here, a MetricState in `metric_flow`).  Indexing, negative indices and
    iteration give a built state; a slice gives another view.  The raw states
    are never written.
    """

    def __init__(self, t: np.ndarray, states: list[np.ndarray], make):
        self._t = t
        self._states = states
        self._make = make

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _Checkpoints(self._t[k], self._states[k], self._make)
        return self._make(self._t[k], self._states[k])


def _flow_checkpoints(dims: Dimensions, t: np.ndarray, states: list[np.ndarray], table: _StackedTable) -> _Checkpoints:
    return _Checkpoints(t, states, lambda t, y: FlowState(t, LieBracket(dims, _to_tensor(y, dims.d, table))))


@dataclass
class Trajectory:
    """Sampled bracket-flow solution.

    Scalar series and the raw states are kept at every sample: t = 0, then
    one per accepted step (`_drive`), or 33 stationary samples for the zero
    bracket.  `checkpoints` is a lazy read-only Sequence[FlowState]
    over those states: each access builds the FlowState, so a run that never
    reads it builds no LieBracket.  Times are physical: decreasing for
    backward runs.  `residual_rows` is the number of residual rows the drift
    check read per step on the run's support (`curvature._residual_forms`):
    0 when every residual vanishes identically there, so the check is
    vacuous.  It is never None.  `rhs` is the derivative the monitor
    evaluated at each sample, in the layout of the raw states, so that
    `estimate_report` reads dR/dt off it.
    """

    direction: str
    horizon: float
    initial: LieBracket
    t: np.ndarray
    mu_norm: np.ndarray
    scalar_R: np.ndarray
    tr_ric_sq: np.ndarray
    rhs_norm: np.ndarray
    jacobi_residual: np.ndarray
    h1_residual: np.ndarray
    h3_residual: np.ndarray
    checkpoints: Sequence[FlowState]
    rhs: list[np.ndarray]
    verdict: Verdict
    residual_rows: int
    dense: "DenseSolution | None" = None

    @property
    def dims(self) -> Dimensions:
        return self.initial.dims

    @property
    def n_samples(self) -> int:
        return len(self.t)


class DenseSolution:
    """The dense output of an integrated flow: its steps' interpolants, read at any time in its range.

    ts are the sample times, increasing or decreasing, and interpolants[i]
    covers [ts[i], ts[i + 1]].  A time reads the segment `np.searchsorted`
    finds among the sorted knots, with the side rule of scipy's `OdeSolution`
    ("left" ascending, "right" descending), so that at a knot it reads the
    segment of lower index; a time outside the range is refused.  A scalar
    time gives the state; a 1-d array of m times gives the states as the m
    columns of one array, each contiguous group of the sorted times that
    shares a segment read in one interpolant call; an empty array gives an
    array of no column, as `stepper.DenseStep` does.  A time array of more
    dimensions is refused, as `stepper.DenseStep` refuses it.  With a
    `table`, as every bracket-flow run has, the interpolants hold the state
    u on its support (see `_to_state`) and the solution is the flat tensor
    of size d^3 that u stands for, mirrored exactly (`_to_tensor`); without
    one (the metric flow) it is the interpolated state itself.
    """

    def __init__(self, ts, interpolants, d: int = 0, table: _StackedTable | None = None):
        ts = np.asarray(ts)
        self._ascending = bool(ts[-1] >= ts[0])
        self._knots = ts if self._ascending else ts[::-1]
        self._side = "left" if self._ascending else "right"
        self.t_min, self.t_max = self._knots[0], self._knots[-1]
        self.interpolants = interpolants
        self._d = d
        self._table = table

    def _segments(self, t: np.ndarray) -> np.ndarray:
        last = len(self.interpolants) - 1
        seg = np.clip(np.searchsorted(self._knots, t, side=self._side) - 1, 0, last)
        return seg if self._ascending else last - seg

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim > 1:
            raise ValueError("`t` must be a float or a 1-D array.")
        if t.size and not (self.t_min <= np.min(t) and np.max(t) <= self.t_max):
            raise ValueError(f"time {t} outside the integrated range")
        if not t.size:
            y = self.interpolants[0](t)  # shape (N, 0)
        elif t.ndim == 0:
            y = self.interpolants[self._segments(t)](t)
        else:
            # scipy's order of evaluation, so that every interpolant call sees the same times
            order = np.argsort(t)
            t_sorted = t[order]
            seg = self._segments(t_sorted)
            cuts = [0, *(np.flatnonzero(np.diff(seg)) + 1), len(t)]
            parts = [self.interpolants[seg[a]](t_sorted[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
            ys = np.hstack(parts)
            y = np.empty_like(ys)
            y[:, order] = ys
        return y if self._table is None else _to_tensor(y, self._d, self._table).reshape((self._d**3,) + y.shape[1:])


def bracket_flow_rhs(mu: LieBracket) -> LieBracket:
    """Right-hand side -pi(diag(0, Ric_mu)) mu of the bracket flow."""
    table = _flow_table(mu)
    dy = _default_rhs_tensor(_to_state(mu.c, table), table, _rhs_scratch(table))[0]
    return LieBracket(mu.dims, _to_tensor(dy, mu.dims.d, table))


def _to_state(c: np.ndarray, table: _StackedTable) -> np.ndarray:
    # The stepper's state of the antisymmetric tensor c: its entries on the
    # table's support, u = c.ravel()[upper].
    return c.ravel()[table.upper]


def _to_tensor(y: np.ndarray, d: int, table: _StackedTable) -> np.ndarray:
    # The (d, d, d) tensor of a state: u at the support's flat indices, 0.0 - u
    # at their mirrors.  A stack of states, as the columns of y, gives the
    # tensors along a last axis.
    return _from_half(y, table.upper, table.mirror, d)


def _rhs_scratch(table: _StackedTable) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    # The scratch of `_default_rhs_tensor` on the table: for a dense stack, the
    # buffer its product [Q u; P u] is written into, with the buffer's two
    # (rows, m') halves as views; None for a sparse table, which needs none.
    # Each run makes its own, since the cached table is shared by every run
    # on its support.
    if table.stack is None:
        return None
    buf = np.empty(table.stack.shape[0])
    qu, pu = buf.reshape(2, table.rows, table.upper.size)
    return buf, qu, pu


def _default_rhs_tensor(y: np.ndarray, table: _StackedTable, scratch) -> tuple[np.ndarray, np.ndarray]:
    # The derivative of the state y (see `_to_state`), in the same layout,
    # together with the rows r of the Ricci matrix it was built from: Ric's
    # rows on the support, which r[table.sym] spreads into the Ricci matrix.
    # Only the monitor reads Ric, so only it spreads r; the RK stages do not.
    # scratch is `_rhs_scratch(table)`.  On a sparse table (no dense stack)
    # one gather of y through table.gather gives the operands of both forms,
    # r = Q(u, u) and the derivative P(r, u), each one bincount over the
    # nonzero coefficients; on a dense one a single product writes [Q u; P u]
    # into the scratch buffer, then r = (Q u) @ u and the derivative
    # r @ (P u).  No Ricci assembly runs.  The products are ndarray methods,
    # which skip np.dot's dispatch layer (see `stepper`).
    if scratch is None:
        q, p = table.q_form, table.p_form
        x = y[table.gather]
        k = q.coef.size
        r = q.gathered(x[:k], x[k : 2 * k])
        return p.gathered(r[p.a], x[2 * k :]), r
    buf, qu, pu = scratch
    table.stack.dot(y, out=buf)
    r = qu.dot(y)
    return r.dot(pu), r


def _end_time(direction: str, horizon: float) -> float:
    """+horizon forward, -horizon backward; rejects any other direction or a bad horizon.

    A bool is refused as a horizon, as in every numeric field of
    `IntegratorOptions`: True would otherwise run to t = 1.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if _is_bool(horizon) or not (np.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    return horizon if direction == "forward" else -horizon


def integrate(
    initial: LieBracket,
    direction: str = "forward",
    horizon: float = 10.0,
    opts: IntegratorOptions | None = None,
) -> Trajectory:
    """Integrate the bracket flow until the horizon or a singularity verdict.

    Args:
        initial: admissible starting bracket (membership is checked).
        direction: 'forward' or 'backward'; a backward run steps to the
            physical time -horizon.
        horizon: finite positive amount of time to cover.
        opts: integrator options; defaults are suitable for the catalog.

    Returns:
        A Trajectory whose verdict is 'immortal', 'blowup' or 'flat'.

    Raises:
        ValueError: the direction is unknown or the horizon is not finite and
            positive.
        NotInVarietyError: the initial bracket fails admissibility at
            `opts.membership_tol`.
        StiffnessError: step size underflowed before the stop rule fired.
        DriftError: admissibility residuals exceeded `opts.drift_tol`.
        FlowError: the step budget `MAX_STEPS` was exhausted.
    """
    opts = opts or IntegratorOptions()
    t_end = _end_time(direction, horizon)
    check_conditions(initial).require(opts.membership_tol)

    dims = initial.dims
    q, d = dims.q, dims.d
    norm = bracket_norm(initial)
    table = _flow_table(initial)
    forms = _residual_forms(d, q, table.support)
    y0 = _to_state(initial.c, table)
    # Per sample: the Jacobi, h1 and h3 residuals, and the derivative.
    rows: list[float] = []
    derivs: list[np.ndarray] = []

    if norm == 0.0:
        # The zero bracket is an exact fixed point: a stationary run on the
        # empty support's table, whose state holds no entry, with samples
        # dense enough for the estimators and its dense output always kept
        # (one zero coefficient row per step: the interpolant is y0 at every
        # time).
        t = np.linspace(0.0, t_end, 33)
        zero = np.zeros((1, y0.size))
        steps = [DenseStep(t_old, t_new, y0, zero) for t_old, t_new in zip(t[:-1], t[1:])]
        run = _Run(Verdict(kind="flat"), t, [y0] * t.size, np.zeros((t.size, dims.n, dims.n)), steps)
        rows += [0.0] * (3 * t.size)
        derivs += run.states  # the zero derivative, which on the empty state is the state itself
    else:
        scratch = _rhs_scratch(table)

        def fun(_t, y):
            return _default_rhs_tensor(y, table, scratch)[0]

        checked = forms.rows > 0

        def sample(t, y):
            # The monitor, at t = 0 too, where the state is already admitted
            # at membership_tol <= drift_tol: one RHS evaluation for the
            # derivative and Ric, and the drift check, the largest residual
            # relative to |mu| to its degree.  Where the support has no
            # residual row, every residual is exactly 0 on V_S and the check
            # is vacuous, so it is not made.  Each entry of y stands for two
            # tensor entries, c and its mirror.
            dy, r = _default_rhs_tensor(y, table, scratch)
            jac = h1 = h3 = 0.0
            if checked:
                jac, h1, h3 = forms.residuals(y)
                drift = max(_relative_residuals(jac, h1, h3, 2 * float(y.dot(y))))
                if drift > opts.drift_tol:
                    raise DriftError(f"admissibility drift {drift:.3e} exceeds {opts.drift_tol:.1e} at t = {t}")
            rows.extend((jac, h1, h3))
            derivs.append(dy)
            return r[table.sym]

        solver = RK45(fun, 0.0, y0, t_bound=t_end, rtol=opts.rel_tol, atol=_abs_tol(opts, norm), rms_weight=2 / d**3)
        run = _drive(solver, opts, sample, dims.n)

    jac, h1, h3 = np.reshape(rows, (-1, 3)).T.copy()
    scale = _pow2_scale(y0)
    ric = run.ric.reshape(run.t.size, -1)
    return Trajectory(
        direction=direction,
        horizon=horizon,
        initial=initial,
        t=run.t,
        mu_norm=_norms(run.states, scale),
        scalar_R=run.scalar_R,
        # Ric is symmetric, so tr Ric^2 is the sum of its squared entries.
        tr_ric_sq=np.sum(ric * ric, axis=1),
        rhs_norm=_norms(derivs, scale**3),
        jacobi_residual=jac,
        h1_residual=h1,
        h3_residual=h3,
        checkpoints=_flow_checkpoints(dims, run.t, run.states, table),
        rhs=derivs,
        verdict=run.verdict,
        residual_rows=forms.rows,
        dense=DenseSolution(run.t, run.segments, d, table) if run.segments else None,
    )


def _norms(vectors: list[np.ndarray], s: float) -> np.ndarray:
    """The tensor norm of each vector in the layout of the state, one batched product for the run.

    Each entry stands for two tensor entries, c and its mirror.  The squares
    are taken of v / s, for s a power of 2, and the norms times s: exact, so
    that with s the initial state's `stepper._pow2_scale` for the states and
    its cube for the derivatives they neither overflow nor underflow far
    past the scale where v.v would.  Each row's product is the same dot as
    v.dot(v), bit for bit.
    """
    x = np.array(vectors) / s
    return np.sqrt(2 * np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0]) * s


def _time_left(t: float, r: float, n: int) -> float:
    """The comparison bound n / (2|R|) on the time from t to a singularity.

    Along either flow dR/dt = 2 tr Ric^2 >= (2/n) R^2, so once R has the
    sign of the time direction (the sign of t: R > 0 forward, R < 0
    backward) the singularity comes within n / (2|R|) of t.  Otherwise the
    inequality bounds nothing, and the bound is inf.
    """
    r = -r if t < 0 else r
    return n / (2.0 * r) if r > 0 else np.inf


@dataclass(frozen=True)
class _Run:
    """The samples of one run of either flow, stacked, with its verdict.

    Sample k is at time t[k], with the stepper's raw state states[k] and the
    Ricci matrix ric[k] (shape (m, n, n) for m samples): t = 0, then one per
    accepted step.  `segments` are the dense outputs of the steps between
    consecutive samples, so the sample times are their knots; a stepped run
    keeps them only under `collect_dense`.
    """

    verdict: Verdict
    t: np.ndarray
    states: list[np.ndarray]
    ric: np.ndarray
    segments: list

    @property
    def scalar_R(self) -> np.ndarray:
        return np.trace(self.ric, axis1=1, axis2=2)


def _drive(solver, opts: IntegratorOptions, sample, n: int) -> _Run:
    """Step `solver` to its bound, sampling it after each accepted step; return the run.

    `solver` is a `stepper.DormandPrince54` over a flow on an n-dimensional
    space.  `sample(t, y)` makes the flow's own checks at the state y at
    time t and returns the Ricci matrix there; it is called on the solver's
    initial state and after each accepted step, and the time, the raw state
    (the stepper never writes an array it has handed out) and Ric of each
    sample are kept.  The stop rule of both flows is read at the last sample,
    on R = tr Ric, after each accepted step and at a solver failure (a step
    floor hit right at the singularity): the run is singular once
    `_time_left` is below `STOP_REL` |t|.  Any other failure is a
    StiffnessError.  The verdict of both flows comes from that sample alone
    (`_verdict`).  Segments are kept only under `opts.collect_dense`.

    Raises:
        FlowError: the step budget `MAX_STEPS` was exhausted.
        StiffnessError: the solver failed away from a singularity.
    """
    ts, states, rics = [solver.t], [solver.y], [sample(solver.t, solver.y)]
    segments: list = []
    # The initial sample, at t = 0, never meets the stop rule, so a run
    # returns only after an accepted step.
    singular = False
    while not singular and solver.status == "running":
        if len(ts) > MAX_STEPS:
            raise FlowError(f"step budget of {MAX_STEPS} exhausted at t = {solver.t}")
        msg = solver.step()
        if solver.status != "failed":
            if opts.collect_dense:
                segments.append(solver.dense_output())
            ts.append(solver.t)
            states.append(solver.y)
            rics.append(sample(solver.t, solver.y))
        t, ric = ts[-1], rics[-1]
        r = ric.trace()
        singular = _time_left(t, r, n) < STOP_REL * abs(t)
        if not singular and solver.status == "failed":
            raise StiffnessError(f"integrator failed at t = {solver.t}: {msg}")
    return _Run(_verdict(singular, t, ric, n), np.array(ts), states, np.array(rics), segments)


def _verdict(singular: bool, t: float, ric: np.ndarray, n: int) -> Verdict:
    """The verdict of a run of either flow that ended at time t, with Ricci matrix ric there.

    For both kinds far_bound = t +- `_time_left` there, or None where that is
    inf.  A singular run is a blowup at omega_est = t + R / (2 tr Ric^2), one
    Newton step on 1/R, whose derivative along either flow is
    -2 tr Ric^2 / R^2.  It is written as the far step n / (2R) times
    R^2 / (n tr Ric^2), which is at most 1 since tr Ric^2 >= R^2 / n: so it
    lies in [t, far_bound] up to the rounding of that ratio, equals
    far_bound where the ratio rounds to 1 (an Einstein metric), and scales
    bit for bit as omega / c^2 under mu -> c mu for c a power of 2.  The
    ratio is read off ric divided by a power of 2 (`stepper._pow2_scale`),
    which leaves it unchanged, so R^2 and tr Ric^2 neither overflow nor
    underflow where Ric's entries are normal.  Any other run is immortal.
    """
    r = ric.trace()
    left = _time_left(t, r, n)
    if left == np.inf:
        return Verdict(kind="immortal")
    step = np.copysign(left, t)
    if not singular:
        return Verdict(kind="immortal", far_bound=t + step)
    # Ric is symmetric, so tr Ric^2 is the sum of its squared entries.
    scaled = ric / _pow2_scale(ric)
    r_scaled = scaled.trace()
    ratio = r_scaled * r_scaled / n / np.sum(scaled * scaled)
    return Verdict(kind="blowup", omega_est=t + step * ratio, far_bound=t + step)


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting norm ~ K (omega - t)^exponent on a trajectory tail."""

    omega: float
    omega_stderr: float
    exponent: float
    exponent_stderr: float
    amplitude: float
    n_tail: int
    decades: float


def fit_power_blowup(times: np.ndarray, norms: np.ndarray) -> PowerLawFit:
    """Fit a diverging power law to the tail of a norm series.

    An opt-in diagnostic, of the growth exponent say; no verdict reads it.
    `times` must be increasing (|t| for a backward run), approaching the
    singularity from below and `norms` the diverging quantity.  The tail is
    the final two decades of `norms` (clipped to what the series spans).  For
    each trial singular time the regression of log(norm) on log(omega - t)
    is linear least squares; the trial time is optimized on a log scale.

    Raises:
        ValueError: if the tail holds fewer than `MIN_TAIL_SAMPLES` samples.
    """
    from scipy.optimize import minimize_scalar  # loads scipy.optimize on the first fit, not on import

    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if times.ndim != 1 or times.shape != norms.shape:
        raise ValueError("times and norms must be 1-d arrays of equal length")
    mask = norms >= norms[-1] / 100.0
    tt = times[mask]
    yy = np.log(norms[mask])
    m = len(tt)
    if m < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"blowup fit needs at least {MIN_TAIL_SAMPLES} samples in the final two decades, got {m}"
        )
    t_last = tt[-1]
    gaps = t_last - tt
    span = float(gaps[0]) if gaps[0] > 0 else 1.0
    last_gap = float(gaps[-2]) if m >= 2 and gaps[-2] > 0 else span * 1e-6

    def sse(u):
        x = np.log(np.exp(u) + gaps)
        a = np.vstack([np.ones_like(x), x]).T
        coef, *_ = np.linalg.lstsq(a, yy, rcond=None)
        r = yy - a @ coef
        return float(r @ r)

    res = minimize_scalar(
        sse,
        bounds=(np.log(last_gap * 1e-8), np.log(span * 1e3)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    delta = float(np.exp(res.x))
    omega = t_last + delta

    x = np.log(delta + gaps)
    a = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(a, yy, rcond=None)
    resid = yy - a @ coef
    ss = float(resid @ resid)
    dof = max(m - 3, 1)
    sigma2 = ss / dof
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    exp_stderr = np.sqrt(sigma2 / sxx) if sxx > 0 else np.inf

    # curvature of the objective in omega gives the (non-rigorous) standard error
    h = delta * 1e-3
    d2 = (sse(np.log(delta + h)) - 2.0 * ss + sse(np.log(max(delta - h, delta * 1e-6)))) / h**2
    omega_stderr = float(np.sqrt(2.0 * sigma2 / d2)) if d2 > 0 else np.inf

    decades = float(np.log10(norms[-1] / norms[mask][0])) if norms[mask][0] > 0 else np.inf
    return PowerLawFit(
        omega=omega,
        omega_stderr=omega_stderr,
        exponent=float(coef[1]),
        exponent_stderr=float(exp_stderr),
        amplitude=float(np.exp(coef[0])),
        n_tail=m,
        decades=decades,
    )


def estimate_blowup_time(traj: Trajectory) -> tuple[float, tuple[float, float]]:
    """Singular-time estimate of a blowup and the enclosure (lo, hi) around it.

    omega_est is the verdict's, t_stop + R / (2 tr Ric^2) at the stop sample;
    lo and hi are t_stop and far_bound in time order: the stop sample's time
    and the comparison bound n / (2|R|) past it, on the integrated run.
    Works on a `metric_flow.MetricTrajectory` too.
    """
    v = traj.verdict
    if v.kind != "blowup":
        raise ValueError("trajectory does not carry a blowup verdict")
    lo, hi = sorted((traj.t[-1], v.far_bound))
    return v.omega_est, (lo, hi)


@dataclass(frozen=True)
class EstimateReport:
    """Measured quantities behind the flow estimates along one trajectory.

    velocity_ratio_max bounds |dmu/dt| / |mu|^3; tail_norm_floor is the observed
    minimum of |omega_est - t|^(1/2) |mu(t)| over the resolved blowup tail
    (see `_resolved_tail`; None when the run is not a blowup or no tail
    sample is resolved); scalar_evolution_max_relerr is the largest
    |dR/dt - 2 tr Ric^2| / (2 tr Ric^2) over the samples, dR/dt read at each
    sample off its state and the derivative the monitor evaluated there
    (`Trajectory.rhs`) through the support's Ricci form
    (`curvature._scalar_rate`), so it checks the evolution identity to
    rounding at every sample count; monotone_R_violation measures the
    largest decrease of R between consecutive samples in forward time,
    relative to the larger |R| of the pair; comparison_slack is the
    minimum of (R(t) - comp(t)) / comp(t), R against the scalar comparison
    solution comp(t) = 1 / (1/R(0) - 2t/n) in units of comp; it is computed
    for forward runs with R(0) > 0 over the samples with t > 0 on the inner
    99% of the comparison lifespan (None otherwise), and is >= 0 up to the
    error of the integration, since R never falls below comp.  All three
    are relative, with 0 / 0 read as 0, so they do not change under
    mu -> c mu (bit for bit when c is a power of 2).
    """

    velocity_ratio_max: float
    tail_norm_floor: float | None
    scalar_evolution_max_relerr: float
    monotone_R_violation: float
    comparison_slack: float | None


def estimate_report(traj: Trajectory) -> EstimateReport:
    """Evaluate the flow estimates along a trajectory, at any sample count."""
    velocity_ratio = float(np.max(_ratio(traj.rhs_norm, traj.mu_norm**3)))

    target = 2.0 * traj.tr_ric_sq
    rate = _scalar_rate(np.array(traj.checkpoints._states), np.array(traj.rhs), _flow_table(traj.initial))
    evol_err = float(np.max(_ratio(np.abs(rate - target), target)))

    r_asc = traj.scalar_R[np.argsort(traj.t)]
    before, after = r_asc[:-1], r_asc[1:]
    drops = _ratio(before - after, np.maximum(np.abs(before), np.abs(after)))
    monotone = float(max(0.0, np.max(drops)))

    floor = None
    if traj.verdict.kind == "blowup":
        tail = _resolved_tail(traj)
        if len(tail):
            vals = np.sqrt(np.abs(traj.verdict.omega_est - traj.t[tail])) * traj.mu_norm[tail]
            floor = float(np.min(vals))

    slack = None
    r0 = float(traj.scalar_R[0])
    n = traj.dims.n
    if traj.direction == "forward" and r0 > 0:
        t_pole = (n / 2.0) / r0
        # At t = 0, R equals comp exactly, which would cap the slack at 0.
        mask = (traj.t > 0) & (traj.t <= 0.99 * t_pole)
        if np.any(mask):
            comp = 1.0 / (1.0 / r0 - (2.0 / n) * traj.t[mask])
            slack = float(np.min((traj.scalar_R[mask] - comp) / comp))

    return EstimateReport(
        velocity_ratio_max=velocity_ratio,
        tail_norm_floor=floor,
        scalar_evolution_max_relerr=evol_err,
        monotone_R_violation=monotone,
        comparison_slack=slack,
    )


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # num / den with 0 / 0 read as 0; den >= 0, and num / 0 is +-inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num == 0, 0.0, num / den)


def _resolved_tail(traj: Trajectory) -> np.ndarray:
    """Indices of the blowup tail that the tail diagnostics read.

    The samples with |mu| within two decades of the last sample, less those
    with |omega_est - t| < TAIL_GAP_REL |omega_est|.  The rule is scale
    free, and the samples it drops are those where a rounding-level change
    of omega_est moves |omega_est - t| by a visible fraction.
    """
    omega = traj.verdict.omega_est
    tail = traj.mu_norm >= traj.mu_norm[-1] / 100.0
    return np.flatnonzero(tail & (np.abs(omega - traj.t) >= TAIL_GAP_REL * abs(omega)))


def type_I_diagnostic(traj: Trajectory) -> float:
    """Sup of |omega_est - t| * |Riem(mu(t))| over the resolved blowup tail (q = 0).

    The tail is `_resolved_tail`'s: |mu| within two decades of the last
    sample, less the samples closer to omega_est than its own error.  A
    finite value is the signature of a type-I singularity.  |Riem| comes from
    the Koszul oracle, so isotropy is rejected.
    """
    if traj.dims.q != 0:
        raise ValueError("type-I diagnostic needs q = 0 (no |Riem| oracle with isotropy)")
    if traj.verdict.kind != "blowup":
        raise ValueError("type-I diagnostic applies to blowup trajectories")
    tail = _resolved_tail(traj)
    if not len(tail):
        raise ValueError("no tail sample lies farther from omega_est than its resolution")
    omega = traj.verdict.omega_est
    best = 0.0
    for k in tail:
        cp = traj.checkpoints[k]
        riem = np.sqrt(koszul_ricci_oracle(cp.mu).riem_sq)
        best = max(best, abs(omega - cp.t) * riem)
    return float(best)
