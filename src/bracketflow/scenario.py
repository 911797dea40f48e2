"""Scenario files, trajectory CSV output and machine-readable reports.

A scenario is a plain key = value text file ('#' starts a comment).  The
initial data is either a catalog reference or inline structure constants:

    name       = su2-demo
    catalog    = su2_round          # or inline: q, n and bracket
    direction  = forward            # forward | backward | both
    horizon    = 2.0

    q = 0
    n = 3
    bracket = (1,2,3, 1.0) (2,3,1, 1.0) (3,1,2, 1.0)   # 1-indexed (i,j,k,value)

    rel_tol = 1e-10                 # integrator override, optional
    validation_tol = 1e-10          # membership tolerance, see below
    expect_forward = blowup         # optional expectations: immortal |
    expect_omega = 1.0              # blowup | flat, and singular times
    expect_tol = 1e-3

Bracket indices in files are 1-based, as in hand calculations; they are
converted to 0-based internally.  The bracket is built once, at load time,
and the loaded `Scenario` runs it: the catalog entry's, or the inline one,
which is validated there; a failing admissibility condition rejects the
scenario naming the offending residual.  The scenario keeps its `source`
(the catalog name or "inline") and its expectations as `expected`, in the
shape of `CatalogEntry.expected`: {direction: (kind | None, time | None)},
where `expect_omega` is the forward time and `expect_alpha` the backward
one, so `catalog run` passes an entry's expectation as it is.

`validation_tol` is the one membership tolerance: it sets
`IntegratorOptions.membership_tol`, so loading and integrating accept the
same brackets, and it bounds each residual relative to |mu| to its degree.
The drift check's bound is max(`flow.DRIFT_TOL`, validation_tol), so an
admitted bracket passes it at its first step.  Every value is checked as
it is read, and a bad one is rejected naming its line: `name`, which
prefixes the output files, must hold no path separator, a bracket value
must be finite, `direction` one of forward, backward or both, `horizon`,
`rel_tol` and `validation_tol` finite and positive, `expect_forward` and
`expect_backward` a verdict kind, `expect_tol` finite and positive,
`expect_omega` and `expect_alpha` finite.  A key may be given once, and
any other key is rejected as unknown (so is `abs_tol`: the step control's
absolute floor follows the initial bracket's norm, see
`flow.IntegratorOptions`; `max_steps`: the step budget is
`flow.MAX_STEPS`; `drift_tol`: the drift bound follows validation_tol; and
`sample_stride`: the CSV holds every sample); a file must be UTF-8 text.
A `Scenario` built in Python is checked at construction the same way.

Running a scenario writes, per direction, a CSV trajectory table of every
sample with header ``t,mu_norm,scalar_R,tr_ric_sq,jacobi_residual`` (>= 15
significant digits per value) and a JSON report with the verdict, the
singular-time estimate `omega_est`, the ends of its enclosure (`t_stop`,
the time of the last sample, and `far_one_sided_bound`, the far comparison
bound), `residual_rows` (`Trajectory.residual_rows`: the residual rows the drift
check read per step, 0 for a vacuous check, never null) and the full
estimate report (`estimates`, at any sample count, with
`velocity_ratio_max`, the largest |dmu/dt| / |mu|^3,
`scalar_evolution_max_relerr`, the largest error of dR/dt against
2 tr Ric^2 relative to it, `monotone_R_violation`, the largest drop of R
relative to the larger |R| of its pair of samples, and `comparison_slack`,
in units of the comparison solution over the samples with t > 0).

Exit codes: 0 success, 1 verdict contradicts declared expectations,
2 load/validation error, 3 integrator failure.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .algebra import LieBracket, NotInVarietyError, check_conditions
from .catalog import get_entry
from .flow import FlowError, IntegratorOptions, Trajectory, _end_time, estimate_report, integrate

__all__ = ["Scenario", "ScenarioError", "load_scenario", "run_scenario", "write_trajectory_csv"]

CSV_HEADER = "t,mu_norm,scalar_R,tr_ric_sq,jacobi_residual"


class ScenarioError(ValueError):
    """Scenario file could not be parsed or validated."""


@dataclass(frozen=True)
class Scenario:
    """A loaded scenario: the bracket it runs and how to run and check it.

    name prefixes the files `run_scenario` writes, so it may hold no path
    separator.
    source is the catalog entry's name, or "inline", as the report gives it.
    expected maps a direction to (kind | None, time | None), the shape of
    `CatalogEntry.expected`: the verdict kind and the singular time (omega
    forward, alpha backward) that run must give, time within expect_tol.
    overrides are the `IntegratorOptions` fields the file sets.
    Construction raises ScenarioError on a bad value, for a file's scenario
    and for one built in Python alike (a Scenario is frozen, so no value
    can change after that check): a name with a path separator, a direction
    or horizon that `flow._end_time` refuses, overrides that
    `IntegratorOptions` refuses, or an expect_tol that is not finite and
    positive.
    """

    name: str
    bracket: LieBracket
    source: str = "inline"
    directions: tuple = ("forward",)
    horizon: float = 10.0
    overrides: dict = field(default_factory=dict)
    h2_note: str = ""
    expected: dict = field(default_factory=dict)
    expect_tol: float = 1e-3

    def __post_init__(self):
        try:
            _file_stem(self.name)
        except ValueError as exc:
            raise ScenarioError(f"bad scenario name: {exc}") from exc
        try:
            for direction in self.directions:
                _end_time(direction, self.horizon)
            self.options()
            if not (math.isfinite(self.expect_tol) and self.expect_tol > 0):
                raise ValueError(f"expect_tol must be finite and positive, got {self.expect_tol!r}")
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad scenario {self.name!r}: {exc}") from exc

    def options(self, base: IntegratorOptions | None = None) -> IntegratorOptions:
        return replace(base or IntegratorOptions(), **self.overrides)


def _finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {value}")
    return x


def _positive_finite(value: str) -> float:
    # a NaN tolerance would pass every comparison, a negative one fail every run
    x = _finite(value)
    if not x > 0:
        raise ValueError(f"must be positive, got {value}")
    return x


def _file_stem(value: str) -> str:
    # the name prefixes the files written under --out, so it may not lead out of it
    if any(sep and sep in value for sep in ("/", os.sep, os.altsep)):
        raise ValueError(f"must not contain a path separator, got {value!r}")
    return value


def _directions(value: str) -> tuple:
    value = value.lower()
    if value not in ("forward", "backward", "both"):
        raise ValueError(f"must be forward, backward or both, got {value!r}")
    return ("forward", "backward") if value == "both" else (value,)


def _verdict_kind(value: str) -> str:
    value = value.lower()
    if value not in ("immortal", "blowup", "flat"):
        raise ValueError(f"must be immortal, blowup or flat, got {value!r}")
    return value


def _parse_triples(text: str, path: str, lineno: int) -> list:
    groups = re.findall(r"\(([^()]*)\)", text)
    if not groups:
        raise ScenarioError(f"{path}:{lineno}: bracket must list (i,j,k,value) groups")
    triples = []
    for g in groups:
        parts = [p for p in re.split(r"[,\s]+", g.strip()) if p]
        if len(parts) != 4:
            raise ScenarioError(f"{path}:{lineno}: bracket entry ({g}) needs exactly i, j, k, value")
        try:
            triples.append((int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])))
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: bad bracket entry ({g}): {exc}") from exc
    return triples


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Raises:
        ScenarioError: when the file cannot be read as UTF-8 text, with the
            offending line number on parse errors (a key given twice names
            both lines), or naming the failed admissibility condition and its
            residual when an inline bracket is rejected.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"{path}: no such file")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read as UTF-8 text: {exc}") from exc
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key or not value:
            raise ScenarioError(f"{path}:{lineno}: empty key or value")
        if key in raw:
            raise ScenarioError(f"{path}:{lineno}: duplicate key {key!r}, first given on line {raw[key][1]}")
        raw[key] = (value, lineno)

    def take(key, conv, default=None):
        if key not in raw:
            return default
        value, lineno = raw.pop(key)
        try:
            return conv(value)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc

    name = take("name", _file_stem, path.stem)
    catalog_line = raw["catalog"][1] if "catalog" in raw else 0
    catalog = take("catalog", str)
    q = take("q", int)
    n = take("n", int)
    triples = None
    bracket_line = 0
    if "bracket" in raw:
        value, bracket_line = raw.pop("bracket")
        triples = _parse_triples(value, str(path), bracket_line)
    directions = take("direction", _directions, ("forward",))
    horizon = take("horizon", _positive_finite, 10.0)
    h2_note = take("h2_note", str, "")
    # validation_tol is the file's name for the membership tolerance
    tols = {"rel_tol": take("rel_tol", _positive_finite), "membership_tol": take("validation_tol", _positive_finite)}
    overrides = {option: value for option, value in tols.items() if value is not None}
    kinds = [take(f"expect_{direction}", _verdict_kind) for direction in ("forward", "backward")]
    times = [take("expect_omega", _finite), take("expect_alpha", _finite)]
    expected = {
        direction: (kind, time)
        for direction, kind, time in zip(("forward", "backward"), kinds, times)
        if (kind, time) != (None, None)
    }
    expect_tol = take("expect_tol", _positive_finite, 1e-3)

    if raw:
        key, (_, lineno) = next(iter(raw.items()))
        raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")

    if catalog is not None:
        if triples is not None or q is not None or n is not None:
            raise ScenarioError(f"{path}:{catalog_line}: give either catalog = ... or inline q/n/bracket, not both")
        try:
            mu = get_entry(catalog).bracket
        except KeyError as exc:
            raise ScenarioError(f"{path}:{catalog_line}: {exc.args[0]}") from exc
    else:
        if q is None or n is None or triples is None:
            raise ScenarioError(f"{path}: inline scenarios need q, n and bracket")
        try:
            mu = LieBracket.from_triples(q, n, triples, one_indexed=True)
        except ValueError as exc:
            raise ScenarioError(f"{path}:{bracket_line}: {exc}") from exc
        try:
            check_conditions(mu).require(IntegratorOptions(**overrides).membership_tol)
        except NotInVarietyError as exc:
            raise ScenarioError(f"{path}:{bracket_line}: inline bracket rejected: {exc}") from exc
    return Scenario(name, mu, catalog or "inline", directions, horizon, overrides, h2_note, expected, expect_tol)


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """Write the scalar series of every sample; the printed precision round-trips doubles.

    Every value is printed as format(x, ".17g"), through one %-template
    for the whole file.
    """
    series = (traj.t, traj.mu_norm, traj.scalar_R, traj.tr_ric_sq, traj.jacobi_residual)
    values = np.column_stack(series).ravel().tolist()
    template = "\n" + ",".join(["%.17g"] * len(series))
    path.write_text(CSV_HEADER + (template * traj.n_samples) % tuple(values) + "\n")


def _verdict_dict(traj: Trajectory) -> dict:
    v = traj.verdict
    return {
        "kind": v.kind,
        "omega_est": v.omega_est,
        "t_stop": float(traj.t[-1]),
        "far_one_sided_bound": v.far_bound,
    }


def run_scenario(scenario: Scenario, out_dir=".", base_opts: IntegratorOptions | None = None):
    """Integrate a scenario and write its CSV and report files.

    Returns:
        (exit_code, written_paths): 0 on success, 1 when a declared
        expectation is contradicted, 3 when the integrator fails.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    opts = scenario.options(base_opts)
    written = []
    failed = False
    contradicted = []

    for direction in scenario.directions:
        report: dict = {
            "name": scenario.name,
            "direction": direction,
            "horizon": scenario.horizon,
            "source": scenario.source,
            "h2_note": scenario.h2_note or None,
        }
        base = out_dir / f"{scenario.name}_{direction}"
        try:
            traj = integrate(scenario.bracket, direction, scenario.horizon, opts)
        except FlowError as exc:
            failed = True
            report["error"] = f"{type(exc).__name__}: {exc}"
            (base.parent / (base.name + "_report.json")).write_text(json.dumps(report, indent=2) + "\n")
            written.append(base.parent / (base.name + "_report.json"))
            continue

        csv_path = base.parent / (base.name + ".csv")
        write_trajectory_csv(traj, csv_path)
        written.append(csv_path)

        report["verdict"] = _verdict_dict(traj)
        report["samples"] = traj.n_samples
        report["residual_rows"] = traj.residual_rows
        report["estimates"] = asdict(estimate_report(traj))

        problems = []
        want_kind, want_time = scenario.expected.get(direction, (None, None))
        if want_kind is not None and traj.verdict.kind != want_kind:
            problems.append(f"expected {want_kind}, got {traj.verdict.kind}")
        if want_time is not None:
            got = traj.verdict.omega_est
            if got is None or abs(got - want_time) > scenario.expect_tol:
                problems.append(
                    f"expected singular time {want_time} +- {scenario.expect_tol}, got {got}"
                )
        report["expectation_failures"] = problems
        if problems:
            contradicted.extend(problems)

        report_path = base.parent / (base.name + "_report.json")
        report_path.write_text(json.dumps(report, indent=2) + "\n")
        written.append(report_path)

    code = 3 if failed else (1 if contradicted else 0)
    return code, written
