"""Acceptance suite: every quantitative claim the package is built to meet.

Each criterion is a named check returning pass/fail plus a one-line detail.
The CLI `verify` command runs them all and prints a table; the test suite
runs the same checks one per test.  Expected values are closed-form
consequences of the scalar ODE reductions quoted in the catalog notes, or
dual-route comparisons (algebraic Ricci vs. Koszul oracle, bracket flow vs.
metric flow).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .algebra import LieBracket, bracket_norm, pi_action, random_bracket, random_two_step_nilpotent, scale_bracket
from .catalog import catalog_entries, cover_dichotomy_check, get_entry
from .curvature import koszul_ricci_oracle, ricci_operator
from .flow import (
    IntegratorOptions,
    Trajectory,
    _resolved_tail,
    bracket_flow_rhs,
    estimate_report,
    integrate,
)
from .metric_flow import equivalence_check, metric_flow_integrate

__all__ = ["CheckResult", "AcceptanceLab", "criteria_ids", "run_criterion", "run_all", "verify_all"]


@dataclass(frozen=True)
class CheckResult:
    cid: int
    title: str
    passed: bool
    detail: str
    seconds: float


class AcceptanceLab:
    """Shared state for the acceptance checks: cached catalog trajectories."""

    def __init__(self, opts: IntegratorOptions | None = None):
        self.opts = opts or IntegratorOptions()
        self._runs: dict[tuple[str, str], Trajectory] = {}

    def run(self, name: str, direction: str) -> Trajectory:
        key = (name, direction)
        if key not in self._runs:
            entry = get_entry(name)
            self._runs[key] = integrate(
                entry.bracket, direction, entry.default_horizon[direction], self.opts
            )
        return self._runs[key]

    def all_runs(self):
        for entry in catalog_entries():
            for direction in ("forward", "backward"):
                yield entry, direction, self.run(entry.name, direction)


def _fail(parts: list, cond: bool, msg: str) -> bool:
    if not cond:
        parts.append(msg)
    return cond


def _c1_su2_blowup(lab: AcceptanceLab):
    """su(2): forward blowup at 1, R(t)(1-t) = 3/2 on [0.9, 0.99], < 1 s."""
    entry = get_entry("su2_round")
    t0 = time.perf_counter()
    traj = integrate(entry.bracket, "forward", 2.0, lab.opts)
    elapsed = time.perf_counter() - t0
    problems: list[str] = []
    ok = _fail(problems, traj.verdict.kind == "blowup", f"verdict {traj.verdict.kind}")
    omega = traj.verdict.omega_est if ok else None
    if ok:
        ok &= _fail(problems, abs(omega - 1.0) <= 1e-3, f"omega_est {omega}")
        window = (traj.t >= 0.9) & (traj.t <= 0.99)
        prod = traj.scalar_R[window] * (1.0 - traj.t[window])
        ok &= _fail(problems, window.sum() >= 5, "too few samples in [0.9, 0.99]")
        if window.sum():
            dev = float(np.max(np.abs(prod / 1.5 - 1.0)))
            ok &= _fail(problems, dev <= 0.01, f"R(t)(1-t) deviates {dev:.2e}")
        bound = (traj.dims.n / 2.0) / traj.scalar_R[0]
        ok &= _fail(problems, abs(omega - bound) <= 1e-3, f"extinction bound gap {omega - bound:.2e}")
    ok &= _fail(problems, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    detail = f"omega_est={omega}, runtime={elapsed:.2f}s" if ok else "; ".join(problems)
    return ok, detail


def _c2_heisenberg(lab: AcceptanceLab):
    """Heisenberg: immortal to 1e4 with exact R(t), backward blowup at -1/3, < 5 s."""
    entry = get_entry("heisenberg3")
    t0 = time.perf_counter()
    fwd = integrate(entry.bracket, "forward", 1e4, lab.opts)
    bwd = integrate(entry.bracket, "backward", 1.0, lab.opts)
    elapsed = time.perf_counter() - t0
    problems: list[str] = []
    ok = _fail(problems, fwd.verdict.kind == "immortal", f"forward verdict {fwd.verdict.kind}")
    exact = -1.0 / (2.0 * (1.0 + 3.0 * fwd.t))
    rel = float(np.max(np.abs(fwd.scalar_R - exact) / np.abs(exact)))
    ok &= _fail(problems, rel <= 1e-6, f"forward R relative error {rel:.2e}")
    ok &= _fail(problems, bwd.verdict.kind == "blowup", f"backward verdict {bwd.verdict.kind}")
    alpha = bwd.verdict.omega_est
    if bwd.verdict.kind == "blowup":
        ok &= _fail(problems, abs(alpha + 1.0 / 3.0) <= 1e-3, f"alpha_est {alpha}")
        ok &= _fail(problems, bwd.scalar_R[-1] < -1e9, f"R at last sample {bwd.scalar_R[-1]:.3e}")
        tail = bwd.scalar_R[-5:]
        ok &= _fail(problems, bool(np.all(np.diff(tail) < 0)), "R not strictly falling into the singularity")
        bound = (bwd.dims.n / 2.0) / bwd.scalar_R[0]
        ok &= _fail(problems, alpha >= bound - 1e-3, f"alpha {alpha} violates extinction bound {bound}")
    ok &= _fail(problems, elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
    detail = (
        f"forward rel err {rel:.1e}, alpha_est={alpha}, runtime={elapsed:.2f}s"
        if ok
        else "; ".join(problems)
    )
    return ok, detail


def _c3_hyperbolic(lab: AcceptanceLab):
    """Hyperbolic space: Ric = -2I exactly; backward blowup at -1/4 with equality."""
    entry = get_entry("hyperbolic3")
    rd = ricci_operator(entry.bracket)
    problems: list[str] = []
    dev = float(np.max(np.abs(rd.ric + 2.0 * np.eye(3))))
    ok = _fail(problems, dev <= 1e-12, f"Ric deviates from -2I by {dev:.2e}")
    bwd = lab.run("hyperbolic3", "backward")
    ok &= _fail(problems, bwd.verdict.kind == "blowup", f"backward verdict {bwd.verdict.kind}")
    alpha = bwd.verdict.omega_est
    if bwd.verdict.kind == "blowup":
        ok &= _fail(problems, abs(alpha + 0.25) <= 1e-3, f"alpha_est {alpha}")
        bound = (bwd.dims.n / 2.0) / bwd.scalar_R[0]
        ok &= _fail(problems, abs(alpha - bound) <= 1e-3, f"equality gap {alpha - bound:.2e}")
    detail = f"|Ric+2I|={dev:.1e}, alpha_est={alpha}" if ok else "; ".join(problems)
    return ok, detail


def _c4_scalar_evolution(lab: AcceptanceLab):
    """dR/dt matches 2 tr Ric^2 within 1e-4 relative on every catalog run."""
    worst = 0.0
    worst_name = ""
    for entry, direction, traj in lab.all_runs():
        rep = estimate_report(traj)
        if rep.scalar_evolution_max_relerr > worst:
            worst = rep.scalar_evolution_max_relerr
            worst_name = f"{entry.name}/{direction}"
    ok = worst <= 1e-4
    return ok, f"worst relative error {worst:.2e} ({worst_name})"


def _c5_monotonicity(lab: AcceptanceLab):
    """R never drops along any run; sign-flipped dynamics visibly fail."""
    problems: list[str] = []
    worst = 0.0
    worst_name = ""
    for entry, direction, traj in lab.all_runs():
        rep = estimate_report(traj)
        if rep.monotone_R_violation > worst:
            worst = rep.monotone_R_violation
            worst_name = f"{entry.name}/{direction}"
    ok = _fail(problems, worst <= 1e-9, f"worst violation {worst:.2e} ({worst_name})")

    # mutation sensitivity: flipping the sign of the right-hand side (the
    # effect of a flipped Ricci or a flipped representation on su(2)) must
    # contradict both the singularity verdict and the monotonicity check.
    entry = get_entry("su2_round")
    flipped = lambda mu: scale_bracket(bracket_flow_rhs(mu), -1.0)
    mutant = integrate(entry.bracket, "forward", 2.0, lab.opts, rhs=flipped)
    mutant_rep = estimate_report(mutant)
    ok &= _fail(
        problems,
        mutant.verdict.kind != "blowup",
        "mutant unexpectedly still blows up",
    )
    ok &= _fail(
        problems,
        mutant_rep.monotone_R_violation > 1e-3,
        f"mutant monotonicity violation only {mutant_rep.monotone_R_violation:.2e}",
    )
    detail = (
        f"worst violation {worst:.2e}; sign-flipped mutant: verdict {mutant.verdict.kind}, "
        f"violation {mutant_rep.monotone_R_violation:.2e}"
        if ok
        else "; ".join(problems)
    )
    return ok, detail


def _c6_norm_floor(lab: AcceptanceLab):
    """The blowup tails have the norm floors of their rates: sqrt(6) for su(2), 1/sqrt(2) at q = 1.

    At q = 0 the floor is `estimate_report`'s, of (omega - t)^(1/2) |mu|.
    With isotropy |mu| ~ (omega - t)^-1, so at q > 0 it is the floor of
    (omega - t) |mu| over the same resolved tail (`flow._resolved_tail`).
    """
    problems: list[str] = []
    ok = True
    floors = {}
    for entry, direction, traj in lab.all_runs():
        if traj.verdict.kind != "blowup":
            continue
        label = f"{entry.name}/{direction}"
        if traj.dims.q == 0:
            floor = estimate_report(traj).tail_norm_floor
        else:
            tail = _resolved_tail(traj)
            gaps = np.abs(traj.verdict.omega_est - traj.t[tail])
            floor = float(np.min(gaps * traj.mu_norm[tail], initial=np.inf))
            dev = abs(floor * np.sqrt(2.0) - 1.0)
            ok &= _fail(problems, dev <= 0.01, f"{label}: floor {floor} deviates {dev:.2e} from 1/sqrt(2)")
        floors[label] = floor
        ok &= _fail(problems, floor is not None and floor > 0, f"{label}: floor {floor}")
    su2_floor = floors.get("su2_round/forward")
    ok &= _fail(problems, su2_floor is not None, "no su2 blowup run")
    if su2_floor is not None:
        dev = abs(su2_floor / np.sqrt(6.0) - 1.0)
        ok &= _fail(problems, dev <= 0.01, f"su2 floor {su2_floor} deviates {dev:.2e} from sqrt(6)")
    detail = (
        f"floors: " + ", ".join(f"{k}={v:.4f}" for k, v in floors.items())
        if ok
        else "; ".join(problems)
    )
    return ok, detail


def _c7_oracle_equivalence(lab: AcceptanceLab):
    """Algebraic Ricci equals the Koszul oracle on q=0 data, < 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for entry in catalog_entries():
        if entry.bracket.dims.q != 0:
            continue
        a = ricci_operator(entry.bracket).ric
        b = koszul_ricci_oracle(entry.bracket).ric
        worst = max(worst, float(np.max(np.abs(a - b))))
    rng = np.random.default_rng(20240811)
    for _ in range(100):
        n = int(rng.integers(4, 7))
        mu = random_two_step_nilpotent(n, rng)
        a = ricci_operator(mu).ric
        b = koszul_ricci_oracle(mu).ric
        worst = max(worst, float(np.max(np.abs(a - b))))
    elapsed = time.perf_counter() - t0
    problems: list[str] = []
    ok = _fail(problems, worst <= 1e-9, f"max deviation {worst:.2e}")
    ok &= _fail(problems, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    detail = f"max deviation {worst:.2e}, runtime={elapsed:.2f}s" if ok else "; ".join(problems)
    return ok, detail


def _c8_flow_equivalence(lab: AcceptanceLab):
    """Metric flow and bracket flow agree through isometry invariants."""
    horizons = {
        "abelian3": 10.0,
        "heisenberg3": 100.0,
        "su2_round": 2.0,
        "hyperbolic3": 10.0,
        "nilpotent4": 10.0,
        "hyperbolic_plane": 10.0,
    }
    problems: list[str] = []
    ok = True
    worst = 0.0
    worst_name = ""
    for name, horizon in horizons.items():
        entry = get_entry(name)
        gap = equivalence_check(entry.bracket, horizon, lab.opts)
        if gap > worst:
            worst, worst_name = gap, name
        ok &= _fail(problems, gap <= 1e-5, f"{name}: invariant gap {gap:.2e}")
    mt = metric_flow_integrate(
        get_entry("su2_round").bracket, np.eye(3), "forward", 2.0, lab.opts
    )
    bt = lab.run("su2_round", "forward")
    ok &= _fail(problems, mt.verdict.kind == "blowup", f"metric verdict {mt.verdict.kind}")
    if mt.verdict.kind == "blowup":
        gap_omega = abs(mt.verdict.omega_est - bt.verdict.omega_est)
        ok &= _fail(problems, gap_omega <= 1e-3, f"omega gap {gap_omega:.2e}")
    detail = (
        f"worst invariant gap {worst:.2e} ({worst_name}); su2 omega gap "
        f"{abs(mt.verdict.omega_est - bt.verdict.omega_est):.2e}"
        if ok
        else "; ".join(problems)
    )
    return ok, detail


def _c9_scaling(lab: AcceptanceLab):
    """Ric scales as c^2 and the flow velocity as c^3, exactly."""
    rng = np.random.default_rng(7)
    worst_ric = 0.0
    worst_rhs = 0.0
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
    ok = worst_ric <= 1e-12 and worst_rhs <= 1e-12
    return ok, f"worst relative defect: Ric {worst_ric:.2e}, velocity {worst_rhs:.2e}"


def _c10_cover_dichotomy(lab: AcceptanceLab):
    """Universal-cover note R^n <=> forward immortal with R <= 0."""
    problems: list[str] = []
    ok = True
    for entry in catalog_entries():
        verdict = cover_dichotomy_check(entry, lab.run(entry.name, "forward"))
        ok &= _fail(problems, verdict.ok, f"{entry.name}: {verdict.detail}")
    detail = f"all {len(catalog_entries())} entries consistent" if ok else "; ".join(problems)
    return ok, detail


def _c11_no_eternal(lab: AcceptanceLab):
    """Nonzero scalar curvature forces a singularity in at least one direction."""
    problems: list[str] = []
    ok = True
    for entry in catalog_entries():
        fwd = lab.run(entry.name, "forward")
        bwd = lab.run(entry.name, "backward")
        if entry.r0 == 0.0:
            stationary = (
                fwd.verdict.kind == "flat"
                and bwd.verdict.kind == "flat"
                and float(np.max(fwd.mu_norm)) == 0.0
                and float(np.max(bwd.mu_norm)) == 0.0
            )
            ok &= _fail(problems, stationary, f"{entry.name}: flat entry not stationary")
        else:
            hits = (fwd.verdict.kind == "blowup") or (bwd.verdict.kind == "blowup")
            ok &= _fail(
                problems, hits, f"{entry.name}: no blowup in either direction despite R(0) != 0"
            )
    detail = "singularity structure as required on all entries" if ok else "; ".join(problems)
    return ok, detail


_CRITERIA = [
    (1, "su(2): forward blowup at t = 1 with R(t)(1-t) = 3/2", _c1_su2_blowup),
    (2, "Heisenberg: immortal forward, backward singularity at -1/3", _c2_heisenberg),
    (3, "hyperbolic space: Ric = -2I and backward singularity at -1/4", _c3_hyperbolic),
    (4, "scalar-curvature evolution dR/dt = 2 tr Ric^2", _c4_scalar_evolution),
    (5, "R-monotonicity with mutation sensitivity", _c5_monotonicity),
    (6, "norm floors (omega - t)^(1/2) |mu| (q = 0), (omega - t) |mu| (q > 0)", _c6_norm_floor),
    (7, "algebraic Ricci vs. Koszul oracle", _c7_oracle_equivalence),
    (8, "metric flow vs. bracket flow invariants", _c8_flow_equivalence),
    (9, "quadratic/cubic scaling laws", _c9_scaling),
    (10, "universal-cover dichotomy", _c10_cover_dichotomy),
    (11, "no non-flat eternal solutions", _c11_no_eternal),
]


def criteria_ids() -> list[int]:
    return [cid for cid, _, _ in _CRITERIA]


def run_criterion(cid: int, lab: AcceptanceLab | None = None) -> CheckResult:
    lab = lab or AcceptanceLab()
    for id_, title, fn in _CRITERIA:
        if id_ == cid:
            t0 = time.perf_counter()
            passed, detail = fn(lab)
            return CheckResult(cid, title, passed, detail, time.perf_counter() - t0)
    raise KeyError(f"no criterion {cid}")


def run_all(opts: IntegratorOptions | None = None) -> list[CheckResult]:
    lab = AcceptanceLab(opts)
    return [run_criterion(cid, lab) for cid in criteria_ids()]


def verify_all(opts: IntegratorOptions | None = None) -> int:
    """Run every acceptance criterion, print a pass/fail table, return an exit code."""
    results = run_all(opts)
    width = max(len(r.title) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.cid:>2}  {r.title:<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    print(
        f"{len(results) - n_fail}/{len(results)} criteria passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return 0 if n_fail == 0 else 1
