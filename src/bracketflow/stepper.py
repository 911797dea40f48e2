"""Embedded Dormand-Prince 5(4) Runge-Kutta pair with adaptive steps and dense output.

The method of Dormand & Prince (J. Comput. Appl. Math. 6 (1980)) with the
step control of Hairer, Norsett & Wanner, *Solving ODEs I*, sections
II.4-II.6, and the quartic dense output of Shampine (Math. Comp. 46
(1986)).  Given the same first step it takes the same steps as
`scipy.integrate.RK45` up to rounding: the same tableau, step floor and
step-size factors.  Its initial-step heuristic is scipy's written
homogeneously in time, with no absolute floor, and takes each of its norms
of a vector prescaled by a power of 2, so a run of y' = f(y) and one
rescaled by a power of 2 take the same steps bit for bit when atol scales
with y, as long as the entries of y and f stay normal floats.  Both flows
step with it (`flow._drive`).

Stage arithmetic is fused: each attempt writes h [A; E] into one buffer
allocated with the stepper, and stage s is one product of its fixed row
view hA[s, :s] with K[:s].  The last row of A holds the 5th-order
weights, so the last stage is the new state's derivative (first same as
last) and the next step starts from it.  The error norm is the weighted
RMS sqrt(w * e.e) of e = h (E @ K) / (atol + rtol max(|y|, |y_new|)), a
Python float; |y| is kept from the attempt that accepted y.  w is
1/len(y) unless the caller's state stores several mirrored entries once
(see `rms_weight`).  Every product on the step's path (a stage's sum, the
error estimate and its norm, the dense output's coefficients and their
evaluation) is an ndarray method, `a.dot(b)`: the C routine that `np.dot`
reaches after its dispatch layer (`__array_function__`), which costs more
than the product itself on a state of a few entries.  A non-finite error
norm, as from a stage that left the RHS's domain or an overflow, rejects the
attempt and retries at MIN_FACTOR times the step.  Each attempt and the
whole initial-step heuristic run under `np.errstate(over="ignore",
invalid="ignore")`, so such an attempt raises no floating-point warning, nor
does the heuristic's last quotient where a subnormal horizon overflows it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DormandPrince54"]

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _pow2_scale(x: np.ndarray) -> float:
    """The power of 2 just above max |x|, or 1.0 where x is all 0 or not finite.

    x divided by it has entries below 1 in magnitude, the largest at least
    1/2, and the division is exact unless a quotient falls below the normal
    range, so a sum of squares of the quotient neither overflows nor
    underflows to 0, and rescales by the exact square of the power.
    """
    top = float(np.max(np.abs(x), initial=0.0))
    return math.ldexp(1.0, math.frexp(top)[1]) if 0.0 < top < math.inf else 1.0


class DormandPrince54:
    """Adaptive Dormand-Prince 5(4) stepper for y' = fun(t, y), y a 1-d array.

    `step()` makes one accepted step, after any rejected attempts; `status`
    is 'running', 'finished' (t reached t_bound) or 'failed' (the step fell
    below 10 ulps of t).  `nfev` counts RHS evaluations: 2 in the
    constructor (the derivative at t0 and the initial-step probe) and
    `n_stages` = 6 per attempt.  `f` is the derivative at (t, y).  The
    stepper never writes an array it has handed out as `y`.

    rms_weight is w in the error norm sqrt(w * e.e); None means 1/len(y0),
    the plain RMS.  A state that stores each of its entries k times over in
    a full vector of N entries (the rest zero) passes k / N, so that its
    norm equals the full vector's.
    """

    n_stages = 6
    # The embedded error estimate is of order 4, so the error scales as h^5.
    error_exponent = -1 / 5
    C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1])
    # Row 6 is the 5th-order solution: stage 6 is the derivative at the new state.
    A = np.array([
        [0, 0, 0, 0, 0, 0, 0],
        [1 / 5, 0, 0, 0, 0, 0, 0],
        [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
        [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
        [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    ])
    # 5th- minus 4th-order weights over all 7 stages.
    E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
    _AE = np.vstack([A, E])
    # Shampine's dense output: y(t_old + x h) = y_old + h sum_k x^(k+1) (P^T K)[k].
    P = np.array([
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ])

    def __init__(self, fun, t0, y0, t_bound, rtol=1e-3, atol=1e-6, rms_weight=None):
        if t_bound == t0:
            raise ValueError("t_bound must differ from t0")
        if not atol > 0:
            raise ValueError(f"atol must be positive, got {atol}")
        self._fun = fun
        self.t = t0
        self.y = np.asarray(y0, dtype=float)
        self.t_bound = t_bound
        self.direction = 1.0 if t_bound > t0 else -1.0
        # scipy's floor on rtol, below which the error estimate is rounding.
        self.rtol = max(rtol, 100 * np.finfo(float).eps)
        self.atol = atol
        self._w = 1.0 / self.y.size if rms_weight is None else rms_weight
        self.status = "running"
        self.nfev = 0
        self.t_old = None
        self.y_old = None
        self.K = np.empty((self.n_stages + 1, self.y.size))
        # h [A; E], rewritten by each attempt, and (s, C[s], row s of h A
        # before s, the stages before s) for s = 1..6, as Python floats and fixed views
        self._h_ae = np.empty((self.n_stages + 2, self.n_stages + 1))
        self._h_e = self._h_ae[-1]
        self._stages = [(s, float(self.C[s]), self._h_ae[s, :s], self.K[:s]) for s in range(1, self.n_stages + 1)]
        self._abs_y = np.abs(self.y)
        self.f = self._eval(t0, self.y)
        self.h_abs = self._initial_step()

    def _eval(self, t, y):
        self.nfev += 1
        return self._fun(t, y)

    def _rms(self, x: np.ndarray) -> float:
        # a numpy scalar, as in scipy: an overflowed norm gives inf, not an exception
        return np.sqrt(self._w * x.dot(x))

    def _scaled_rms(self, x: np.ndarray) -> float:
        # `_rms` of x / s, times s, for s = `_pow2_scale(x)`: the same float
        # wherever x's sum of squares is normal, and the right one where it
        # would overflow or underflow
        s = _pow2_scale(x)
        return self._rms(x / s) * s

    def _initial_step(self) -> float:
        # Hairer-Norsett-Wanner II.4, written homogeneously in time: h0 from
        # |y|/|f|, then one Euler probe bounds h by the local change of f.
        # Every quantity compared is dimensionless, but f / scale is not:
        # it carries the units of 1/t, and its square overflows or
        # underflows long before the state does.  So each norm is taken of
        # its vector prescaled by a power of 2 (`_scaled_rms`), and
        # rescaling t, and y with atol, by powers of 2 rescales the step
        # exactly while every scaled quantity stays normal.
        t0, y0, f0 = self.t, self.y, self.f
        interval = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        with np.errstate(over="ignore", invalid="ignore"):
            d0, d1 = self._scaled_rms(y0 / scale), self._scaled_rms(f0 / scale)
            h0 = min(0.01 * d0 / d1, interval) if d1 > 0 else interval
            f1 = self._eval(t0 + h0 * self.direction, y0 + h0 * self.direction * f0)
            change = max(d1, self._scaled_rms((f1 - f0) / scale)) * h0
            h1 = h0 * (0.01 / change) ** -self.error_exponent if change > 0 else interval
        return min(100 * h0, h1, interval)

    def _attempt(self, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """(y_new, f_new, |y_new|, error norm) of a step of h from (t, y); fills the stages K.

        An attempt that overflows gives a non-finite error norm, which `step`
        rejects, so its stages and norm run with overflow and invalid
        operations ignored: they raise no floating-point warning.
        """
        t, y, K, fun = self.t, self.y, self.K, self._fun
        np.multiply(h, self._AE, out=self._h_ae)
        K[0] = self.f
        with np.errstate(over="ignore", invalid="ignore"):
            for s, c, h_a, before in self._stages:
                y_s = y + h_a.dot(before)
                K[s] = f_s = fun(t + c * h, y_s)
            self.nfev += self.n_stages
            abs_new = np.abs(y_s)
            e = self._h_e.dot(K) / (self.atol + np.maximum(self._abs_y, abs_new) * self.rtol)
            return y_s, f_s, abs_new, math.sqrt(self._w * float(e.dot(e)))

    def step(self) -> str | None:
        """Make one accepted step; return None, or the failure message with status 'failed'."""
        if self.status != "running":
            raise RuntimeError("attempt to step on a failed or finished solver")
        t = self.t
        min_step = 10 * abs(math.nextafter(t, self.direction * math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return TOO_SMALL_STEP
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, abs_new, error_norm = self._attempt(h)
            if not math.isfinite(error_norm):
                # A stage outside the RHS's domain (NaN) or an overflow.
                h_abs *= MIN_FACTOR
                rejected = True
            elif error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(MAX_FACTOR, SAFETY * error_norm**self.error_exponent)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            else:
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm**self.error_exponent)
                rejected = True
        self.t_old, self.y_old = t, self.y
        self.t, self.y, self.f, self._abs_y = t_new, y_new, f_new, abs_new
        self.h_abs = h_abs
        if self.direction * (self.t - self.t_bound) >= 0:
            self.status = "finished"
        return None

    def dense_output(self) -> "DenseStep":
        """Interpolant of the last accepted step."""
        if self.t_old is None:
            raise RuntimeError("dense output is available after the first step")
        return DenseStep(self.t_old, self.t, self.y_old, self.P.T.dot(self.K))


class DenseStep:
    """One step's quartic interpolant y_old + h sum_k x^(k+1) q[k], x = (t - t_old) / h.

    A scalar time gives the state; a 1-d array of m times gives the m states
    as the columns of one array.  A time array of more dimensions is refused.
    """

    def __init__(self, t_old: float, t: float, y_old: np.ndarray, q: np.ndarray):
        self.t_old = t_old
        self.h = t - t_old
        self.y_old = y_old
        self.q = q

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim > 1:
            raise ValueError("`t` must be a float or a 1-D array.")
        x = (t - self.t_old) / self.h
        powers = np.cumprod(np.full((len(self.q),) + np.shape(x), x), axis=0)
        y = self.h * self.q.T.dot(powers)
        return y + (self.y_old if y.ndim == 1 else self.y_old[:, None])
