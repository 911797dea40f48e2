"""Print one digest line per reference run, so that two checkouts can be compared bit for bit.

    python3 tools/run_digests.py [--against REV] [GROUP ...]

Each line is `label verdict samples sha256`: the run's verdict kind, its
sample count and a sha256 over its series or output bytes.  GROUP is one of
`cli`, `nilpotent` and `metric` (all three by default); each reuses the
seed-0 inputs of a flowbench workload (`flowbench/workloads.py`):

- cli: the 16 `catalog run`s and the 32 scale probes of `catalog_cli`,
  through in-process `cli.main`; the digest covers the CSV and report bytes
  and the exit code.
- nilpotent: the 9 brackets of `nilpotent_ensemble` (n = 6, 9, 13):
  `ricci_operator` and the Koszul oracle (Ric, R, tr Ric^2, |Riem|^2), then
  the flow both ways (every series of the Trajectory and the verdict).
- metric: C8's six q = 0 entries at C8's horizons on both flows (the metric
  flow's t, R, Ricci spectra and verdict, with its `omega_est` in repr
  beside the verdict kind), then the `equivalence_check` gap of each of the
  16 ops of `metric_equivalence`, printed in repr in the verdict column and
  digested as its exact float.  A change of summation order on the metric
  side moves the series digests; these printed floats show how far it
  moves omega and the gaps.

The package and the workloads are imported from the checkout this file sits
in, so a copy of it run in another checkout digests that one.  --against REV
does that: it runs this file's own copy in a temporary `git worktree` of REV
on the same groups, prints each line that differs (`-` REV's, `+` this
checkout's; where both print a float, a third line with omega_est's
relative or the gap's absolute difference; under a cli pair, which of its
outputs differ: the CSV, or the report's keys whose values differ, such as
`estimates.scalar_evolution_max_relerr`) and a count of the identical ones,
and exits 1 if any line differs.  The worktree is removed however the run
ends.  --outputs DIR keeps the cli runs' CSV and report files in DIR, as
--against does for both checkouts.

    python3 tools/run_digests.py --against HEAD~1 cli
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, as flowbench runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
for _path in (ROOT / "flowbench", ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import workloads  # noqa: E402  (flowbench's, from this checkout)
from bracketflow import cli, equivalence_check, integrate, koszul_ricci_oracle, metric_flow_integrate  # noqa: E402
from bracketflow import ricci_operator  # noqa: E402
from bracketflow.catalog import get_entry  # noqa: E402

SEED = 0


def digest(*parts) -> str:
    """sha256 over bytes as they are and over anything else as a float64 array (shape, then bytes)."""
    h = hashlib.sha256()
    for part in parts:
        if not isinstance(part, bytes):
            a = np.ascontiguousarray(part, dtype=float)
            part = repr(a.shape).encode() + a.tobytes()
        h.update(part)
    return h.hexdigest()


def line(label: str, verdict: str, samples, sha: str) -> str:
    return f"{label:<40} {verdict:<10} {samples:>6} {sha}"


def _verdict_bytes(v) -> bytes:
    # repr of a float round-trips it, so equal bytes mean equal floats
    return repr((v.kind, v.omega_est, v.far_bound)).encode()


def cli_line(run) -> str:
    """Digest of one `workloads.CliRun`: its exit code, CSV and report bytes."""
    run.prepare()
    code = run.run(cli)
    report = json.loads(run.report.read_text())
    outputs = [path.read_bytes() for path in run.outputs if path.exists()]
    kind = report["verdict"]["kind"] if "verdict" in report else "error"
    return line(run.label, kind, report.get("samples", 0), digest(str(code).encode(), *outputs))


def bracket_line(label: str, traj) -> str:
    """Digest of a bracket-flow Trajectory: every sampled series, residual_rows and the verdict."""
    series = (traj.t, traj.mu_norm, traj.scalar_R, traj.tr_ric_sq, traj.rhs_norm)
    residuals = (traj.jacobi_residual, traj.h1_residual, traj.h3_residual)
    sha = digest(*series, *residuals, [traj.residual_rows], _verdict_bytes(traj.verdict))
    return line(label, traj.verdict.kind, traj.n_samples, sha)


def metric_line(label: str, traj) -> str:
    """Digest of a MetricTrajectory: t, R, the Ricci spectra and the verdict, whose omega_est is printed in repr."""
    sha = digest(traj.t, traj.scalar_R, traj.ric_eigs, _verdict_bytes(traj.verdict))
    omega = traj.verdict.omega_est
    return line(label, f"{traj.verdict.kind} {None if omega is None else float(omega)!r}", traj.n_samples, sha)


def gap_line(label: str, gap: float) -> str:
    """An `equivalence_check` gap, printed in repr and digested as its exact float."""
    return line(f"{label}/gap", repr(gap), "-", digest([gap]))


def cli_runs(work_dir: Path) -> list:
    """The `workloads.CliRun`s of the cli group, writing under work_dir, sorted by label."""
    wl = workloads.build("catalog_cli", SEED, work_dir)
    return sorted(wl.ops + wl.probes, key=lambda run: run.label)


def cli_lines(work_dir: Path):
    for run in cli_runs(work_dir):
        yield cli_line(run)


def nilpotent_lines(work_dir: Path):
    for op in workloads.build("nilpotent_ensemble", SEED, work_dir).ops:
        rd, oracle = ricci_operator(op.mu), koszul_ricci_oracle(op.mu)
        scalars = [rd.scalar, rd.ric_sq_trace, oracle.scalar, oracle.ric_sq_trace, oracle.riem_sq]
        yield line(f"{op.label}/ricci", "-", 1, digest(rd.ric, oracle.ric, scalars))
        for direction in ("forward", "backward"):
            yield bracket_line(f"{op.label}/{direction}", integrate(op.mu, direction, workloads.NILPOTENT_HORIZON))


def metric_lines(work_dir: Path):
    for name, horizon in workloads.C8_HORIZONS.items():
        mu = get_entry(name).bracket
        yield bracket_line(f"C8/{name}/bracket", integrate(mu, "forward", horizon))
        yield metric_line(f"C8/{name}/metric", metric_flow_integrate(mu, np.eye(mu.dims.n), "forward", horizon))
    for op in workloads.build("metric_equivalence", SEED, work_dir).ops:
        yield gap_line(op.label, equivalence_check(op.mu, op.horizon))


GROUPS = {"cli": cli_lines, "nilpotent": nilpotent_lines, "metric": metric_lines}


def digest_lines(names, out_dir: Path | None = None) -> list[str]:
    """The lines of the groups, the cli runs writing their files under out_dir (a temporary directory if None)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(out_dir or tmp)
        work.mkdir(parents=True, exist_ok=True)
        return [text for name in names for text in GROUPS[name](work)]


def printed_float(text: str) -> float | None:
    """The float a digest line prints in its verdict column, omega_est or a gap, or None where it prints none."""
    try:
        return float(text.split()[-3])
    except ValueError:
        return None


_MISSING = object()


def _file_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def _flat_json(path: Path) -> dict:
    """The leaves of a JSON report by dotted key (`estimates.velocity_ratio_max`), {} where there is no file."""
    if not path.exists():
        return {}
    out = {}

    def walk(value, key):
        if isinstance(value, dict) and value:
            for k, v in value.items():
                walk(v, f"{key}.{k}" if key else k)
        else:
            out[key] = value

    walk(json.loads(path.read_text()), "")
    return out


def output_changes(run, old_dir: Path, new_dir: Path) -> list[str]:
    """What differs between two checkouts' files of one cli run, written under old_dir and new_dir.

    One line if the CSV's bytes differ, and one naming the report's keys
    whose values differ; none where both files are alike.
    """
    csv, report = (path.name for path in run.outputs)
    out = []
    if _file_bytes(old_dir / csv) != _file_bytes(new_dir / csv):
        out.append("  CSV differs")
    a, b = _flat_json(old_dir / report), _flat_json(new_dir / report)
    keys = [key for key in dict.fromkeys([*a, *b]) if a.get(key, _MISSING) != b.get(key, _MISSING)]
    if keys:
        out.append("  report differs in " + ", ".join(keys))
    return out


def differing(old: list[str], new: list[str], explain=None) -> list[str]:
    """The lines of two listings that differ, paired by label: `- ` the old line, then `+ ` the new one.

    Where both lines of a pair print a float, a third line gives how far it
    moved: omega_est's relative difference, or a gap's absolute one.  Where
    explain is given, explain(label) gives the lines printed under each
    differing pair (`output_changes` for a cli run).
    """
    old_by, new_by = ({text.split(maxsplit=1)[0]: text for text in lines} for lines in (old, new))
    out = []
    for label in dict.fromkeys([*old_by, *new_by]):
        a, b = old_by.get(label), new_by.get(label)
        if a != b:
            out.extend(f"{sign} {text}" for sign, text in (("-", a), ("+", b)) if text is not None)
            x, y = (printed_float(text) if text else None for text in (a, b))
            if x is not None and y is not None:
                if label.endswith("/gap"):
                    out.append(f"  gap absolute difference {abs(y - x):.3g}")
                else:
                    out.append(f"  omega relative difference {abs(y - x) / abs(x):.3g}")
            if explain is not None:
                out.extend(explain(label))
    return out


def digest_lines_at(rev: str, names, out_dir: Path) -> list[str]:
    """This file's lines for the groups as run on a temporary `git worktree` of rev, which is always removed.

    The cli runs write their files under out_dir.
    """
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            tool = tree / "tools" / Path(__file__).name
            shutil.copyfile(__file__, tool)
            argv = [sys.executable, str(tool), "--outputs", str(out_dir), *names]
            run = subprocess.run(argv, capture_output=True, text=True, check=True)
            return run.stdout.splitlines()
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print one digest line per reference run.")
    parser.add_argument("--against", metavar="REV", help="print only the lines that differ from REV's")
    parser.add_argument("--outputs", metavar="DIR", type=Path, help="keep the cli runs' CSV and report files in DIR")
    parser.add_argument("groups", nargs="*", metavar="GROUP", help=f"one of {list(GROUPS)} (default: all)")
    args = parser.parse_args(argv)
    names = args.groups or list(GROUPS)
    unknown = [name for name in names if name not in GROUPS]
    if unknown:
        print(f"error: unknown group(s) {unknown}; choose from {list(GROUPS)}", file=sys.stderr)
        return 2
    if args.against is None:
        print("\n".join(digest_lines(names, args.outputs)))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        old_dir, new_dir = Path(tmp) / "old", Path(tmp) / "new"
        try:
            old = digest_lines_at(args.against, names, old_dir)
        except subprocess.CalledProcessError as exc:
            print(f"error: {exc}\n{exc.stderr or ''}", file=sys.stderr)
            return 2
        new = digest_lines(names, new_dir)
        runs = {run.label: run for run in cli_runs(new_dir)} if "cli" in names else {}
        diff = differing(old, new, lambda label: output_changes(runs[label], old_dir, new_dir) if label in runs else [])
    for text in diff:
        print(text)
    same = len(set(old) & set(new))
    print(f"{same} of {len(new)} lines identical to {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
