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
  flow's t, R, Ricci spectra and verdict), then the `equivalence_check` gap
  of each of the 16 ops of `metric_equivalence`, printed in the verdict
  column and digested as its exact float.

The package and the workloads are imported from the checkout this file sits
in, so a copy of it run in another checkout digests that one.  --against REV
does that: it runs this file's own copy in a temporary `git worktree` of REV
on the same groups, prints each line that differs (`-` REV's, `+` this
checkout's) and a count of the identical ones, and exits 1 if any line
differs.  The worktree is removed however the run ends.

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
    sha = digest(traj.t, traj.scalar_R, traj.ric_eigs, _verdict_bytes(traj.verdict))
    return line(label, traj.verdict.kind, traj.n_samples, sha)


def cli_lines(work_dir: Path):
    wl = workloads.build("catalog_cli", SEED, work_dir)
    for run in sorted(wl.ops + wl.probes, key=lambda run: run.label):
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
        gap = equivalence_check(op.mu, op.horizon)
        yield line(f"{op.label}/gap", f"{gap:.4e}", "-", digest([gap]))


GROUPS = {"cli": cli_lines, "nilpotent": nilpotent_lines, "metric": metric_lines}


def digest_lines(names) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        return [text for name in names for text in GROUPS[name](Path(tmp))]


def differing(old: list[str], new: list[str]) -> list[str]:
    """The lines of two listings that differ, paired by label: `- ` the old line, then `+ ` the new one."""
    old_by, new_by = ({text.split(maxsplit=1)[0]: text for text in lines} for lines in (old, new))
    out = []
    for label in dict.fromkeys([*old_by, *new_by]):
        a, b = old_by.get(label), new_by.get(label)
        if a != b:
            out.extend(f"{sign} {text}" for sign, text in (("-", a), ("+", b)) if text is not None)
    return out


def digest_lines_at(rev: str, names) -> list[str]:
    """This file's lines for the groups as run on a temporary `git worktree` of rev, which is always removed."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            tool = tree / "tools" / Path(__file__).name
            shutil.copyfile(__file__, tool)
            run = subprocess.run([sys.executable, str(tool), *names], capture_output=True, text=True, check=True)
            return run.stdout.splitlines()
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)], check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Print one digest line per reference run.")
    parser.add_argument("--against", metavar="REV", help="print only the lines that differ from REV's")
    parser.add_argument("groups", nargs="*", metavar="GROUP", help=f"one of {list(GROUPS)} (default: all)")
    args = parser.parse_args(argv)
    names = args.groups or list(GROUPS)
    unknown = [name for name in names if name not in GROUPS]
    if unknown:
        print(f"error: unknown group(s) {unknown}; choose from {list(GROUPS)}", file=sys.stderr)
        return 2
    if args.against is None:
        print("\n".join(digest_lines(names)))
        return 0
    try:
        old = digest_lines_at(args.against, names)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}\n{exc.stderr or ''}", file=sys.stderr)
        return 2
    new = digest_lines(names)
    diff = differing(old, new)
    for text in diff:
        print(text)
    same = len(set(old) & set(new))
    print(f"{same} of {len(new)} lines identical to {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
