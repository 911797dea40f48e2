"""Acceptance suite: every quantitative claim the package is built to meet.

Each criterion is a function `fn(lab, check) -> str` that states only its
conditions: `check(cond, msg)` records msg as a failure when cond is false
(and returns cond, so a check can guard the ones that need it), and the
string returned is the detail line of a pass.  `run_criterion` passes the
criterion when nothing failed; otherwise the detail is the failures joined
by "; ".  A criterion that raises one of the package's typed errors
(`FlowError`, or a `ValueError` such as `NotInVarietyError` or
`NonSPDError`) fails with "<Type>: <message>" as its detail, so `verify`
always prints its whole table.

The criteria share one `AcceptanceLab`: it makes each (entry, direction,
horizon) run once, keeps the wall time of its `integrate` call for the
timed criteria (C1, C2), and keeps one `estimate_report` per run.  The CLI
`verify` command runs them all and prints a table; the test suite runs the
same checks one per test.  Expected values are closed-form consequences of
the scalar ODE reductions quoted in the catalog notes, or dual-route
comparisons (algebraic Ricci vs. Koszul oracle, bracket flow vs. metric
flow).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .algebra import LieBracket, bracket_norm, pi_action, random_bracket, random_two_step_nilpotent, scale_bracket
from .catalog import catalog_entries, cover_dichotomy_check, get_entry
from .curvature import koszul_ricci_oracle, ricci_operator
from .flow import (
    EstimateReport,
    FlowError,
    IntegratorOptions,
    Trajectory,
    _resolved_tail,
    estimate_report,
    integrate,
)

__all__ = ["CheckResult", "AcceptanceLab", "criteria_ids", "run_criterion", "verify_all"]


@dataclass(frozen=True)
class CheckResult:
    cid: int
    title: str
    passed: bool
    detail: str


class AcceptanceLab:
    """Shared state for the acceptance checks: each catalog run made once, timed, with its estimate report."""

    def __init__(self, opts: IntegratorOptions | None = None):
        self.opts = opts or IntegratorOptions()
        self._runs: dict[tuple[str, str, float], tuple[Trajectory, float]] = {}
        self._reports: dict[tuple[str, str], EstimateReport] = {}

    def timed_run(self, name: str, direction: str, horizon: float | None = None) -> tuple[Trajectory, float]:
        """The run of a catalog entry to `horizon` (None: its default) and the seconds `integrate` took."""
        key = (name, direction, get_entry(name).default_horizon[direction] if horizon is None else horizon)
        if key not in self._runs:
            t0 = time.perf_counter()
            traj = integrate(get_entry(name).bracket, direction, key[2], self.opts)
            self._runs[key] = traj, time.perf_counter() - t0
        return self._runs[key]

    def run(self, name: str, direction: str) -> Trajectory:
        return self.timed_run(name, direction)[0]

    def report(self, name: str, direction: str) -> EstimateReport:
        """The estimate report of the default-horizon run."""
        if (name, direction) not in self._reports:
            self._reports[name, direction] = estimate_report(self.run(name, direction))
        return self._reports[name, direction]

    def all_runs(self):
        for entry in catalog_entries():
            for direction in ("forward", "backward"):
                yield entry, direction, self.run(entry.name, direction)


def _c1_su2_blowup(lab: AcceptanceLab, check) -> str:
    """su(2): forward blowup at 1, R(t)(1-t) = 3/2 on [0.9, 0.99], < 1 s."""
    traj, elapsed = lab.timed_run("su2_round", "forward")
    omega = traj.verdict.omega_est
    if check(traj.verdict.kind == "blowup", f"verdict {traj.verdict.kind}"):
        check(abs(omega - 1.0) <= 1e-3, f"omega_est {omega}")
        window = (traj.t >= 0.9) & (traj.t <= 0.99)
        check(window.sum() >= 5, "too few samples in [0.9, 0.99]")
        if window.sum():
            dev = float(np.max(np.abs(traj.scalar_R[window] * (1.0 - traj.t[window]) / 1.5 - 1.0)))
            check(dev <= 0.01, f"R(t)(1-t) deviates {dev:.2e}")
        bound = (traj.dims.n / 2.0) / traj.scalar_R[0]
        check(abs(omega - bound) <= 1e-3, f"extinction bound gap {omega - bound:.2e}")
    check(elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    return f"omega_est={omega}, runtime={elapsed:.2f}s"


def _c2_heisenberg(lab: AcceptanceLab, check) -> str:
    """Heisenberg: immortal to 1e4 with exact R(t), backward blowup at -1/3, < 5 s."""
    fwd, t_fwd = lab.timed_run("heisenberg3", "forward", 1e4)
    bwd, t_bwd = lab.timed_run("heisenberg3", "backward")
    elapsed = t_fwd + t_bwd
    check(fwd.verdict.kind == "immortal", f"forward verdict {fwd.verdict.kind}")
    exact = -1.0 / (2.0 * (1.0 + 3.0 * fwd.t))
    rel = float(np.max(np.abs(fwd.scalar_R - exact) / np.abs(exact)))
    check(rel <= 1e-6, f"forward R relative error {rel:.2e}")
    alpha = bwd.verdict.omega_est
    if check(bwd.verdict.kind == "blowup", f"backward verdict {bwd.verdict.kind}"):
        check(abs(alpha + 1.0 / 3.0) <= 1e-3, f"alpha_est {alpha}")
        check(bwd.scalar_R[-1] < -1e9, f"R at last sample {bwd.scalar_R[-1]:.3e}")
        check(bool(np.all(np.diff(bwd.scalar_R[-5:]) < 0)), "R not strictly falling into the singularity")
        bound = (bwd.dims.n / 2.0) / bwd.scalar_R[0]
        check(alpha >= bound - 1e-3, f"alpha {alpha} violates extinction bound {bound}")
    check(elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    return f"forward rel err {rel:.1e}, alpha_est={alpha}, runtime={elapsed:.2f}s"


def _c3_hyperbolic(lab: AcceptanceLab, check) -> str:
    """Hyperbolic space: Ric = -2I exactly; backward blowup at -1/4 with equality."""
    dev = float(np.max(np.abs(ricci_operator(get_entry("hyperbolic3").bracket).ric + 2.0 * np.eye(3))))
    check(dev <= 1e-12, f"Ric deviates from -2I by {dev:.2e}")
    bwd = lab.run("hyperbolic3", "backward")
    alpha = bwd.verdict.omega_est
    if check(bwd.verdict.kind == "blowup", f"backward verdict {bwd.verdict.kind}"):
        check(abs(alpha + 0.25) <= 1e-3, f"alpha_est {alpha}")
        bound = (bwd.dims.n / 2.0) / bwd.scalar_R[0]
        check(abs(alpha - bound) <= 1e-3, f"equality gap {alpha - bound:.2e}")
    return f"|Ric+2I|={dev:.1e}, alpha_est={alpha}"


def _worst(lab: AcceptanceLab, field: str) -> tuple[float, str]:
    """The largest `field` of the catalog runs' estimate reports (0.0 if none is positive), and its run."""
    worst, label = 0.0, ""
    for entry, direction, _ in lab.all_runs():
        value = getattr(lab.report(entry.name, direction), field)
        if value > worst:
            worst, label = value, f"{entry.name}/{direction}"
    return worst, label


def _c4_scalar_evolution(lab: AcceptanceLab, check) -> str:
    """dR/dt matches 2 tr Ric^2 within 1e-4 relative at every sample of every catalog run.

    dR/dt is read by the chain rule off each sample's state and the
    derivative the run evaluated there (`flow.estimate_report`), so a run
    whose vector field breaks the identity fails at any sample count.
    """
    worst, label = _worst(lab, "scalar_evolution_max_relerr")
    line = f"worst relative error {worst:.2e} ({label})"
    check(worst <= 1e-4, line)
    return line


def _c5_monotonicity(lab: AcceptanceLab, check) -> str:
    """R never drops along any run; sign-flipped dynamics visibly fail."""
    worst, label = _worst(lab, "monotone_R_violation")
    check(worst <= 1e-9, f"worst violation {worst:.2e} ({label})")
    # mutation sensitivity: flipping the sign of the right-hand side (the
    # effect of a flipped Ricci or a flipped representation on su(2)) must
    # contradict both the singularity verdict and the monotonicity check.
    # The flow is autonomous, so the flipped flow run forward to 2 is the
    # true flow run backward to -2, read with t and its derivatives negated.
    back = lab.timed_run("su2_round", "backward", 2.0)[0]
    mutant = replace(back, direction="forward", t=-back.t, rhs=[-dy for dy in back.rhs])
    check(mutant.verdict.kind != "blowup", "mutant unexpectedly still blows up")
    violation = estimate_report(mutant).monotone_R_violation
    check(violation > 1e-3, f"mutant monotonicity violation only {violation:.2e}")
    return f"worst violation {worst:.2e}; sign-flipped mutant: verdict {mutant.verdict.kind}, violation {violation:.2e}"


def _c6_norm_floor(lab: AcceptanceLab, check) -> str:
    """The blowup tails have the norm floors of their rates: sqrt(6) for su(2), 1/sqrt(2) at q = 1.

    At q = 0 the floor is `estimate_report`'s, of (omega - t)^(1/2) |mu|.
    With isotropy |mu| ~ (omega - t)^-1, so at q > 0 it is the floor of
    (omega - t) |mu| over the same resolved tail (`flow._resolved_tail`).
    """
    floors = {}
    for entry, direction, traj in lab.all_runs():
        if traj.verdict.kind != "blowup":
            continue
        label = f"{entry.name}/{direction}"
        if traj.dims.q == 0:
            floor = lab.report(entry.name, direction).tail_norm_floor
        else:
            tail = _resolved_tail(traj)
            gaps = np.abs(traj.verdict.omega_est - traj.t[tail])
            floor = float(np.min(gaps * traj.mu_norm[tail], initial=np.inf))
            dev = abs(floor * np.sqrt(2.0) - 1.0)
            check(dev <= 0.01, f"{label}: floor {floor} deviates {dev:.2e} from 1/sqrt(2)")
        check(floor is not None and floor > 0, f"{label}: floor {floor}")
        if floor is not None:
            floors[label] = floor
    su2_floor = floors.get("su2_round/forward")
    if check(su2_floor is not None, "no su2 blowup run"):
        dev = abs(su2_floor / np.sqrt(6.0) - 1.0)
        check(dev <= 0.01, f"su2 floor {su2_floor} deviates {dev:.2e} from sqrt(6)")
    return "floors: " + ", ".join(f"{k}={v:.4f}" for k, v in floors.items())


def _c7_oracle_equivalence(lab: AcceptanceLab, check) -> str:
    """Algebraic Ricci equals the Koszul oracle on q=0 data, < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    mus = [entry.bracket for entry in catalog_entries() if entry.bracket.dims.q == 0]
    mus += [random_two_step_nilpotent(int(rng.integers(4, 7)), rng) for _ in range(100)]
    worst = max(float(np.max(np.abs(ricci_operator(mu).ric - koszul_ricci_oracle(mu).ric))) for mu in mus)
    elapsed = time.perf_counter() - t0
    check(worst <= 1e-9, f"max deviation {worst:.2e}")
    check(elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    return f"max deviation {worst:.2e}, runtime={elapsed:.2f}s"


# C8's entries and the horizon each is compared over
_C8_HORIZONS = {
    "abelian3": 10.0, "heisenberg3": 100.0, "su2_round": 2.0,
    "hyperbolic3": 10.0, "nilpotent4": 10.0, "hyperbolic_plane": 10.0,
}


def _c8_flow_equivalence(lab: AcceptanceLab, check) -> str:
    """Metric flow and bracket flow agree through isometry invariants."""
    from .metric_flow import equivalence_check, metric_flow_integrate  # loads LAPACK, so only where C8 runs

    worst, worst_name = 0.0, ""
    for name, horizon in _C8_HORIZONS.items():
        gap = equivalence_check(get_entry(name).bracket, horizon, lab.opts)
        if gap > worst:
            worst, worst_name = gap, name
        check(gap <= 1e-5, f"{name}: invariant gap {gap:.2e}")
    mt = metric_flow_integrate(get_entry("su2_round").bracket, np.eye(3), "forward", 2.0, lab.opts)
    bt = lab.run("su2_round", "forward")
    gap_omega = np.nan  # stays nan only when a check below fails, so the passing line never shows it
    verdicts = f"metric verdict {mt.verdict.kind}, bracket verdict {bt.verdict.kind}"
    if check(mt.verdict.kind == bt.verdict.kind == "blowup", verdicts):
        gap_omega = abs(mt.verdict.omega_est - bt.verdict.omega_est)
        check(gap_omega <= 1e-3, f"omega gap {gap_omega:.2e}")
    return f"worst invariant gap {worst:.2e} ({worst_name}); su2 omega gap {gap_omega:.2e}"


def _c9_scaling(lab: AcceptanceLab, check) -> str:
    """Ric scales as c^2 and the flow velocity as c^3, exactly."""
    rng = np.random.default_rng(7)
    worst_ric = worst_rhs = 0.0
    mus = [get_entry(n).bracket for n in ("heisenberg3", "su2_round", "hyperbolic3")]
    mus += [random_bracket(0, int(rng.integers(3, 6)), rng) for _ in range(20)]
    for mu in mus:
        base_ric = ricci_operator(mu, check=False).ric
        base_rhs = bracket_norm(LieBracket(mu.dims, -pi_action(base_ric, mu).c))
        for c in (0.1, 1.0, 10.0):
            scaled = scale_bracket(mu, c)
            ric_c = ricci_operator(scaled, check=False).ric
            denom = max(float(np.max(np.abs(base_ric))) * c * c, 1e-300)
            worst_ric = max(worst_ric, float(np.max(np.abs(ric_c - c * c * base_ric))) / denom)
            rhs_c = bracket_norm(LieBracket(mu.dims, -pi_action(ric_c, scaled).c))
            if base_rhs > 0:
                worst_rhs = max(worst_rhs, abs(rhs_c - c**3 * base_rhs) / (c**3 * base_rhs))
    line = f"worst relative defect: Ric {worst_ric:.2e}, velocity {worst_rhs:.2e}"
    check(worst_ric <= 1e-12 and worst_rhs <= 1e-12, line)
    return line


def _c10_cover_dichotomy(lab: AcceptanceLab, check) -> str:
    """Universal-cover note R^n <=> forward immortal with R <= 0."""
    for entry in catalog_entries():
        verdict = cover_dichotomy_check(entry, lab.run(entry.name, "forward"))
        check(verdict.ok, f"{entry.name}: {verdict.detail}")
    return f"all {len(catalog_entries())} entries consistent"


def _c11_no_eternal(lab: AcceptanceLab, check) -> str:
    """Nonzero scalar curvature forces a singularity in at least one direction."""
    for entry in catalog_entries():
        fwd, bwd = lab.run(entry.name, "forward"), lab.run(entry.name, "backward")
        if entry.r0 == 0.0:
            stationary = fwd.verdict.kind == bwd.verdict.kind == "flat"
            stationary &= float(np.max(fwd.mu_norm)) == 0.0 and float(np.max(bwd.mu_norm)) == 0.0
            check(stationary, f"{entry.name}: flat entry not stationary")
        else:
            hits = "blowup" in (fwd.verdict.kind, bwd.verdict.kind)
            check(hits, f"{entry.name}: no blowup in either direction despite R(0) != 0")
    return "singularity structure as required on all entries"


_CRITERIA = {
    1: ("su(2): forward blowup at t = 1 with R(t)(1-t) = 3/2", _c1_su2_blowup),
    2: ("Heisenberg: immortal forward, backward singularity at -1/3", _c2_heisenberg),
    3: ("hyperbolic space: Ric = -2I and backward singularity at -1/4", _c3_hyperbolic),
    4: ("scalar-curvature evolution dR/dt = 2 tr Ric^2", _c4_scalar_evolution),
    5: ("R-monotonicity with mutation sensitivity", _c5_monotonicity),
    6: ("norm floors (omega - t)^(1/2) |mu| (q = 0), (omega - t) |mu| (q > 0)", _c6_norm_floor),
    7: ("algebraic Ricci vs. Koszul oracle", _c7_oracle_equivalence),
    8: ("metric flow vs. bracket flow invariants", _c8_flow_equivalence),
    9: ("quadratic/cubic scaling laws", _c9_scaling),
    10: ("universal-cover dichotomy", _c10_cover_dichotomy),
    11: ("no non-flat eternal solutions", _c11_no_eternal),
}


def criteria_ids() -> list[int]:
    """The criterion ids in order, for callers that run one at a time, as the acceptance tests do."""
    return list(_CRITERIA)


def run_criterion(cid: int, lab: AcceptanceLab | None = None) -> CheckResult:
    """Run criterion `cid` on `lab` (a fresh one if None); a typed error it raises fails it, named."""
    title, fn = _CRITERIA[cid]
    failures: list[str] = []

    def check(cond, msg: str) -> bool:
        if not cond:
            failures.append(msg)
        return bool(cond)

    try:
        line = fn(lab or AcceptanceLab(), check)
    except (FlowError, ValueError) as exc:
        failures.append(f"{type(exc).__name__}: {exc}")
    return CheckResult(cid, title, not failures, "; ".join(failures) or line)


def verify_all(opts: IntegratorOptions | None = None) -> int:
    """Run every acceptance criterion on one lab, print a pass/fail table, return an exit code."""
    lab = AcceptanceLab(opts)
    results = [run_criterion(cid, lab) for cid in _CRITERIA]
    width = max(len(r.title) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.cid:>2}  {r.title:<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed" + (f", {n_fail} FAILED" if n_fail else ""))
    return 0 if n_fail == 0 else 1
