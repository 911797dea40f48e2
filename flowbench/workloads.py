"""The benchmark's three workloads: their seeded inputs, ops and output checks.

An op is one unit of timed work with a check on its output.  `run(api)`
does the work through `api`, the package functions the workloads call (see
`spans.entry_points`), and returns what `check` needs; `check` returns an
`Outcome`.  Probes are ops that are checked and counted but never timed.

Why each workload was chosen is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bracketflow.algebra import LieBracket, random_two_step_nilpotent
from bracketflow.catalog import CatalogEntry, catalog_entries, get_entry

# Tolerances of the acceptance criteria the checks reuse.
SINGULAR_TIME_TOL = 1e-3  # C1/C2: singular time and extinction bound
ORACLE_TOL = 1e-9  # C7: algebraic Ricci against the Koszul oracle
GAP_TOL = 1e-5  # C8: metric flow against bracket flow

PROBE_SCALES = (1e-3, 1e7)
NILPOTENT_DIMS = (6, 9, 13)
NILPOTENT_PER_DIM = 3
NILPOTENT_HORIZON = 10.0
EQUIVALENCE_DIMS = (5, 6)
EQUIVALENCE_PER_DIM = 5
EQUIVALENCE_HORIZON = 10.0
# C8's q = 0 entries and horizons.
C8_HORIZONS = {
    "abelian3": 10.0,
    "heisenberg3": 100.0,
    "su2_round": 2.0,
    "hyperbolic3": 10.0,
    "nilpotent4": 10.0,
    "hyperbolic_plane": 10.0,
}


@dataclass(frozen=True)
class Outcome:
    """Result of one op's check; `error` feeds the workload's accuracy margin."""

    ok: bool
    detail: str = ""
    error: float | None = None


@dataclass
class Workload:
    """Seeded inputs of one workload, ready to run.

    `min_passes` is the least number of passes a timed run makes; with it,
    at least 10 timed ops lie beyond the tail percentile `1 - 10 /
    (min_passes * len(ops))`, and that percentile falls inside a group of
    ops of one kind, not on the edge between two kinds.
    """

    ops: list
    probes: list = field(default_factory=list)
    min_passes: int = 4
    error_name: str = ""
    error_tol: float = 1.0

    @property
    def tail_quantile(self) -> float:
        return 1.0 - 10.0 / (self.min_passes * len(self.ops))


class CliRun:
    """One in-process `bracketflow` CLI run checked against a catalog entry.

    With `scale` = 1 this is `catalog run <name>`.  Otherwise it is a
    scale-covariance probe: `run <file>` on an inline scenario of the entry's
    bracket times `scale`, whose horizon, expected singular time and
    tolerance are divided by scale^2, since c*mu(t/c^2) solves the flow.
    """

    def __init__(self, entry: CatalogEntry, direction: str, out_dir: Path, scale: float = 1.0):
        c2 = scale * scale
        self.kind, time = entry.expected[direction]
        self.time = None if time is None else time / c2
        self.tol = SINGULAR_TIME_TOL / c2
        if scale == 1.0:
            self.label = f"{entry.name}/{direction}"
            name = entry.name
            self.argv = ["--out", str(out_dir), "catalog", "run", entry.name]
            if direction == "backward":
                self.argv.append("--backward")
        else:
            self.label = f"{entry.name}/{direction}/c={scale:g}"
            name = f"probe-{entry.name}-{direction}-c{scale:g}"
            path = out_dir / f"{name}.scenario"
            path.write_text(self._scenario(name, entry, direction, scale))
            self.argv = ["--out", str(out_dir), "run", str(path)]
        self.report = out_dir / f"{name}_{direction}_report.json"
        self.outputs = (out_dir / f"{name}_{direction}.csv", self.report)

    def _scenario(self, name: str, entry: CatalogEntry, direction: str, scale: float) -> str:
        mu = entry.bracket
        d = mu.dims.d
        groups = [
            f"({i + 1},{j + 1},{k + 1}, {float(scale * mu.c[i, j, k])!r})"
            for i in range(d)
            for j in range(i + 1, d)
            for k in range(d)
            if mu.c[i, j, k] != 0.0
        ]
        lines = [
            f"name = {name}",
            f"q = {mu.dims.q}",
            f"n = {mu.dims.n}",
            # The zero bracket still needs one (zero) group to parse.
            "bracket = " + (" ".join(groups) if groups else "(1,2,1, 0.0)"),
            f"direction = {direction}",
            f"horizon = {entry.default_horizon[direction] / scale**2!r}",
            f"expect_{direction} = {self.kind}",
            f"expect_tol = {self.tol!r}",
        ]
        if self.time is not None:
            key = "expect_omega" if direction == "forward" else "expect_alpha"
            lines.append(f"{key} = {self.time!r}")
        return "\n".join(lines) + "\n"

    def prepare(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def run(self, api):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return api.main(self.argv)

    def bytes_written(self) -> int:
        return sum(path.stat().st_size for path in self.outputs if path.exists())

    def check(self, code) -> Outcome:
        if code != 0:
            return Outcome(False, f"exit code {code}")
        verdict = json.loads(self.report.read_text())["verdict"]
        if verdict["kind"] != self.kind:
            return Outcome(False, f"verdict {verdict['kind']}, expected {self.kind}")
        if self.time is None:
            return Outcome(True)
        got = verdict["omega_est"]
        if got is None or abs(got - self.time) > self.tol:
            return Outcome(False, f"singular time {got}, expected {self.time} +- {self.tol:g}")
        return Outcome(True, error=abs(got - self.time) / abs(self.time))


class NilpotentRun:
    """Ricci against the Koszul oracle, then the flow both ways, on one bracket."""

    def __init__(self, mu: LieBracket, label: str):
        self.mu = mu
        self.label = label

    def prepare(self) -> None:
        pass

    def run(self, api):
        deviation = float(np.max(np.abs(api.ricci_operator(self.mu).ric - api.koszul_ricci_oracle(self.mu).ric)))
        forward = api.integrate(self.mu, "forward", NILPOTENT_HORIZON)
        backward = api.integrate(self.mu, "backward", NILPOTENT_HORIZON)
        return deviation, forward.verdict, backward.verdict, float(backward.scalar_R[0])

    def check(self, result) -> Outcome:
        deviation, forward, backward, r0 = result
        if not deviation <= ORACLE_TOL:
            return Outcome(False, f"Ricci deviates from the oracle by {deviation:.3e}")
        if forward.kind != "immortal":
            return Outcome(False, f"forward verdict {forward.kind}, expected immortal")
        if backward.kind != "blowup":
            return Outcome(False, f"backward verdict {backward.kind}, expected blowup")
        alpha = backward.omega_est
        bound = self.mu.dims.n / (2.0 * r0)
        if not (alpha < 0 and alpha >= bound - SINGULAR_TIME_TOL):
            return Outcome(False, f"alpha {alpha} outside [{bound}, 0)")
        return Outcome(True, error=deviation)


class EquivalenceRun:
    """Metric flow against bracket flow from the same initial data."""

    def __init__(self, label: str, mu: LieBracket, horizon: float):
        self.label = label
        self.mu = mu
        self.horizon = horizon

    def prepare(self) -> None:
        pass

    def run(self, api):
        return api.equivalence_check(self.mu, self.horizon)

    def check(self, gap) -> Outcome:
        if not gap <= GAP_TOL:
            return Outcome(False, f"invariant gap {gap:.3e} > {GAP_TOL:g}")
        return Outcome(True, error=gap)


def _catalog_cli(seed: int, work_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    entries = catalog_entries()
    ops = [CliRun(e, d, work_dir) for e in entries for d in ("forward", "backward")]
    probes = [
        CliRun(e, d, work_dir, scale=c) for e in entries for d in ("forward", "backward") for c in PROBE_SCALES
    ]
    # The seed fixes the order in which a pass visits the runs.
    ops = [ops[i] for i in rng.permutation(len(ops))]
    probes = [probes[i] for i in rng.permutation(len(probes))]
    return Workload(ops, probes, min_passes=3, error_name="omega_relerr.max", error_tol=SINGULAR_TIME_TOL)


def _nilpotent_ensemble(seed: int, work_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    ops = [
        NilpotentRun(random_two_step_nilpotent(n, rng), f"nilpotent/n={n}/{k}")
        for k in range(NILPOTENT_PER_DIM)
        for n in NILPOTENT_DIMS
    ]
    return Workload(ops, min_passes=4, error_name="oracle_dev.max", error_tol=ORACLE_TOL)


def _metric_equivalence(seed: int, work_dir: Path) -> Workload:
    ops = [EquivalenceRun(name, get_entry(name).bracket, h) for name, h in C8_HORIZONS.items()]
    rng = np.random.default_rng(seed)
    for k in range(EQUIVALENCE_PER_DIM):
        for n in EQUIVALENCE_DIMS:
            ops.append(EquivalenceRun(f"nilpotent/n={n}/{k}", random_two_step_nilpotent(n, rng), EQUIVALENCE_HORIZON))
    return Workload(ops, min_passes=3, error_name="equiv_gap.max", error_tol=GAP_TOL)


WORKLOAD_FACTORIES = {
    "catalog_cli": _catalog_cli,
    "nilpotent_ensemble": _nilpotent_ensemble,
    "metric_equivalence": _metric_equivalence,
}


def build(name: str, seed: int, work_dir: Path) -> Workload:
    """Generate a workload's inputs (and probe scenario files) from `seed`."""
    return WORKLOAD_FACTORIES[name](seed, work_dir)
