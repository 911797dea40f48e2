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

    rel_tol = 1e-10                 # integrator overrides, all optional:
    drift_tol = 1e-6                # rel_tol, drift_tol and max_steps
    sample_stride = 1
    validation_tol = 1e-10          # membership tolerance, see below
    expect_forward = blowup         # optional expectations: immortal |
    expect_omega = 1.0              # blowup | flat, and singular times
    expect_tol = 1e-3

Bracket indices in files are 1-based, as in hand calculations; they are
converted to 0-based internally.  Inline brackets are validated at load
time; a failing admissibility condition rejects the scenario naming the
offending residual.  `validation_tol` is the one membership tolerance: it
sets `IntegratorOptions.membership_tol`, so loading and integrating accept
the same brackets, and it bounds each residual relative to |mu| to its
degree.  Every value is checked as it is read, and a bad one is rejected
naming its line: a bracket value must be finite, `direction` one of
forward, backward or both, `horizon` finite and positive, `sample_stride` an
int >= 1, `expect_forward` and `expect_backward` a verdict kind, `expect_tol`
finite and positive, `expect_omega` and `expect_alpha` finite.  The
integrator overrides are checked together once every key is read, since
`validation_tol` may not exceed `drift_tol` (default 1e-6): the drift check
would refuse the admitted bracket at its first step.  A key may be
given once, and any other key is rejected as unknown (so is `abs_tol`: the
step control's absolute floor follows the initial bracket's norm, see
`flow.IntegratorOptions`); a file must be UTF-8 text.

Running a scenario writes, per direction, a CSV trajectory table with
header ``t,mu_norm,scalar_R,tr_ric_sq,jacobi_residual`` (>= 15 significant
digits per value) and a JSON report with the verdict, the singular-time
estimate `omega_est`, the ends of its enclosure (`t_stop`, the time of the
last sample, and `far_one_sided_bound`, the far comparison bound),
`residual_rows` (`Trajectory.residual_rows`: the residual rows the drift
check read per step, 0 for a vacuous check, null on the flat tensor) and
the full estimate report (`estimates`, with `velocity_ratio_max`, the
largest |dmu/dt| / |mu|^3).

Exit codes: 0 success, 1 verdict contradicts declared expectations,
2 load/validation error, 3 integrator failure.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .algebra import LieBracket, NotInVarietyError, check_conditions
from .catalog import get_entry
from .flow import FlowError, IntegratorOptions, Trajectory, estimate_report, integrate

__all__ = ["Scenario", "ScenarioError", "load_scenario", "run_scenario", "write_trajectory_csv"]

CSV_HEADER = "t,mu_norm,scalar_R,tr_ric_sq,jacobi_residual"

_OPTS_KEYS = {
    "rel_tol": float,
    "drift_tol": float,
    "max_steps": int,
    "validation_tol": float,
}


class ScenarioError(ValueError):
    """Scenario file could not be parsed or validated."""


@dataclass
class Scenario:
    name: str
    catalog_name: str | None = None
    q: int | None = None
    n: int | None = None
    triples: list | None = None
    directions: tuple = ("forward",)
    horizon: float = 10.0
    overrides: dict = field(default_factory=dict)
    sample_stride: int = 1
    h2_note: str = ""
    expect: dict = field(default_factory=dict)
    expect_omega: float | None = None
    expect_alpha: float | None = None
    expect_tol: float = 1e-3

    def options(self, base: IntegratorOptions | None = None) -> IntegratorOptions:
        return replace(base or IntegratorOptions(), **self.overrides)

    def bracket(self) -> LieBracket:
        if self.catalog_name is not None:
            return get_entry(self.catalog_name).bracket
        return LieBracket.from_triples(self.q, self.n, self.triples, one_indexed=True)


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


def _positive_int(value: str) -> int:
    k = int(value)
    if k < 1:
        raise ValueError(f"must be an int >= 1, got {value}")
    return k


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
    sc = Scenario(name=path.stem)
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

    sc.name = take("name", str, sc.name)
    sc.catalog_name = take("catalog", str)
    sc.q = take("q", int)
    sc.n = take("n", int)
    bracket_line = 0
    if "bracket" in raw:
        value, bracket_line = raw.pop("bracket")
        sc.triples = _parse_triples(value, str(path), bracket_line)
    sc.directions = take("direction", _directions, sc.directions)
    sc.horizon = take("horizon", _positive_finite, sc.horizon)
    sc.sample_stride = take("sample_stride", _positive_int, 1)
    sc.h2_note = take("h2_note", str, "")
    given = {}
    for key, conv in _OPTS_KEYS.items():
        # validation_tol is the file's name for the membership tolerance
        name = "membership_tol" if key == "validation_tol" else key
        if key in raw:
            given[name] = (key, raw[key][1])
        val = take(key, conv)
        if val is not None:
            sc.overrides[name] = val
    try:
        sc.options()
    except ValueError as exc:
        # IntegratorOptions names the fields it refuses: name the first line that gave one
        key, lineno = next(given[name] for name in given if name in str(exc))
        raise ScenarioError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    for direction in ("forward", "backward"):
        kind = take(f"expect_{direction}", _verdict_kind)
        if kind is not None:
            sc.expect[direction] = kind
    sc.expect_omega = take("expect_omega", _finite)
    sc.expect_alpha = take("expect_alpha", _finite)
    sc.expect_tol = take("expect_tol", _positive_finite, 1e-3)

    if raw:
        key, (_, lineno) = next(iter(raw.items()))
        raise ScenarioError(f"{path}:{lineno}: unknown key {key!r}")

    has_inline = sc.triples is not None or sc.q is not None or sc.n is not None
    if sc.catalog_name is not None and has_inline:
        raise ScenarioError(f"{path}: give either catalog = ... or inline q/n/bracket, not both")
    if sc.catalog_name is None:
        if sc.q is None or sc.n is None or sc.triples is None:
            raise ScenarioError(f"{path}: inline scenarios need q, n and bracket")
        try:
            mu = LieBracket.from_triples(sc.q, sc.n, sc.triples, one_indexed=True)
        except ValueError as exc:
            raise ScenarioError(f"{path}:{bracket_line}: {exc}") from exc
        try:
            check_conditions(mu).require(sc.options().membership_tol)
        except NotInVarietyError as exc:
            raise ScenarioError(f"{path}:{bracket_line}: inline bracket rejected: {exc}") from exc
    else:
        try:
            get_entry(sc.catalog_name)
        except KeyError as exc:
            raise ScenarioError(f"{path}: {exc.args[0]}") from exc
    return sc


def write_trajectory_csv(traj: Trajectory, path: Path, stride: int = 1) -> None:
    """Write the sampled scalar series; the printed precision round-trips doubles.

    Every value is printed as format(x, ".17g"), through one %-template
    for the whole file.
    """
    rows = list(range(0, traj.n_samples, max(1, stride)))
    if rows[-1] != traj.n_samples - 1:
        rows.append(traj.n_samples - 1)
    series = (traj.t, traj.mu_norm, traj.scalar_R, traj.tr_ric_sq, traj.jacobi_residual)
    values = np.column_stack(series)[rows].ravel().tolist()
    template = "\n" + ",".join(["%.17g"] * len(series))
    path.write_text(CSV_HEADER + (template * len(rows)) % tuple(values) + "\n")


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
    mu = scenario.bracket()
    written = []
    failed = False
    contradicted = []

    for direction in scenario.directions:
        report: dict = {
            "name": scenario.name,
            "direction": direction,
            "horizon": scenario.horizon,
            "source": scenario.catalog_name or "inline",
            "h2_note": scenario.h2_note or None,
        }
        base = out_dir / f"{scenario.name}_{direction}"
        try:
            traj = integrate(mu, direction, scenario.horizon, opts)
        except FlowError as exc:
            failed = True
            report["error"] = f"{type(exc).__name__}: {exc}"
            (base.parent / (base.name + "_report.json")).write_text(json.dumps(report, indent=2) + "\n")
            written.append(base.parent / (base.name + "_report.json"))
            continue

        csv_path = base.parent / (base.name + ".csv")
        write_trajectory_csv(traj, csv_path, scenario.sample_stride)
        written.append(csv_path)

        report["verdict"] = _verdict_dict(traj)
        report["samples"] = traj.n_samples
        report["residual_rows"] = traj.residual_rows
        try:
            est = estimate_report(traj)
        except ValueError as exc:
            report["estimates"] = None
            report["estimates_absent"] = str(exc)
        else:
            report["estimates"] = asdict(est)

        problems = []
        want_kind = scenario.expect.get(direction)
        if want_kind is not None and traj.verdict.kind != want_kind:
            problems.append(f"expected {want_kind}, got {traj.verdict.kind}")
        want_time = scenario.expect_omega if direction == "forward" else scenario.expect_alpha
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
