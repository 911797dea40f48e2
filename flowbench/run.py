"""Benchmark of bracketflow: three workloads timed end to end, traced per module.

Run from the root of a checkout:

    python3 flowbench/run.py --workload catalog_cli --seed 0 --seconds 25 --trace 0

--trace 0 times the workload untraced and prints the end-to-end metrics;
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics.  Every line but the last is for people; the last is one JSON object
with the keys correct, attempted, failed and metrics.  README.md defines the
workloads and metrics.  Full results, and the spans of a traced pass, are
written under flowbench/_out/.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the host has two shared cores
# and all load comes from this one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
WORKLOADS = ("catalog_cli", "nilpotent_ensemble", "metric_equivalence")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "pass_frac": "fraction",
    "peak_rss_mb": "MB",
    "accuracy_margin": "decades",
}


def import_package():
    """Import bracketflow from this checkout's src/, never from anywhere else."""
    if not (SRC / "bracketflow" / "__init__.py").is_file():
        sys.exit(f"error: no bracketflow package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import bracketflow

    if Path(bracketflow.__file__).resolve().parent != SRC / "bracketflow":
        sys.exit(f"error: imported bracketflow from {bracketflow.__file__}, not {SRC}")
    return bracketflow


@dataclass
class Tally:
    """Checked outcomes of the ops a run attempted, and the timed ops' times.

    `times` maps each timed op to its host-speed-normalised times (see
    `reference_seconds`); `raw_wall` is the timed ops' plain wall time.
    """

    attempted: int = 0
    failed: int = 0
    timed_failed: int = 0
    failures: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    times: dict = field(default_factory=dict)
    raw_wall: float = 0.0


# The host's speed drifts by a quarter or more over tens of seconds, because
# other machines' work shares its cores, so plain wall times of the same code
# differ that much from run to run.  Each timed op therefore runs between two
# timings of a fixed loop that does the same kind of work as the package's
# per-step code (small-tensor numpy calls and Python overhead), and its time is
# scaled by REFERENCE_S / (the mean of those two timings): a time in seconds on
# a host where the loop takes REFERENCE_S.  The loop is the benchmark's own
# code, so no change to the package can move it.
REFERENCE_S = 0.0018
_REF_TENSOR = np.random.default_rng(0).standard_normal((6, 6, 6))


def reference_seconds() -> float:
    """Median wall time of three runs of the fixed reference loop."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop(_REF_TENSOR)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _reference_loop(c) -> float:
    d = c.shape[0]
    total = 0.0
    for _ in range(40):
        m = -0.5 * (c.reshape(d, -1) @ c.reshape(d, -1).T) + 0.25 * (c.reshape(-1, d).T @ c.reshape(-1, d))
        b = c.reshape(d, -1) @ np.transpose(c, (0, 2, 1)).reshape(d, -1).T
        h = np.trace(c, axis1=1, axis2=2)
        ad_h = (h @ c.reshape(d, -1)).reshape(d, d).T
        a = 0.5 * (m + m.T) - 0.5 * b - 0.5 * (ad_h + ad_h.T)
        t2 = (a.T @ c.reshape(d, -1)).reshape(d, d, d)
        total += float(np.linalg.norm(c @ a.T - t2 + np.transpose(t2, (1, 0, 2))))
    return total


def run_op(op, api, tally: Tally, timed: bool = True) -> float:
    """Run and check one op; an op that raises counts as failed and the run goes on.

    Returns the op's wall time.  Only the call is timed, not its check.
    """
    from workloads import Outcome

    op.prepare()
    t0 = time.perf_counter()
    try:
        result = op.run(api)
    except Exception as exc:  # the workload must survive any failing op
        elapsed = time.perf_counter() - t0
        outcome = Outcome(False, f"raised {type(exc).__name__}")
    else:
        elapsed = time.perf_counter() - t0
        try:
            outcome = op.check(result)
        except Exception as exc:
            outcome = Outcome(False, f"check raised {type(exc).__name__}: {exc}")
    tally.attempted += 1
    if outcome.ok:
        if timed and outcome.error is not None:
            tally.errors.append(outcome.error)
    else:
        tally.failed += 1
        tally.timed_failed += timed
        tally.failures[f"{'' if timed else 'probe '}{outcome.detail}"] += 1
    return elapsed


def run_pass(workload, api, tally: Tally, probes: bool = True) -> float:
    """Every timed op once, then every probe; returns the timed ops' normalised total."""
    total = 0.0
    ref = reference_seconds()
    for op in workload.ops:
        elapsed = run_op(op, api, tally)
        ref_after = reference_seconds()
        normalised = elapsed * REFERENCE_S / (0.5 * (ref + ref_after))
        tally.times.setdefault(op.label, []).append(normalised)
        tally.raw_wall += elapsed
        total += normalised
        ref = ref_after
    if probes:
        for probe in workload.probes:
            run_op(probe, api, tally, timed=False)
    return total


def nearest_rank(sorted_values: list, q: float):
    """Smallest sample with at least a share q of all samples at or below it."""
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(workload, tally: Tally, setup_samples: list) -> tuple[dict, dict]:
    """The end-to-end metrics of a timed run, plus the details printed next to them."""
    pooled = sorted(t for ts in tally.times.values() for t in ts)
    tail, beyond = nearest_rank(pooled, workload.tail_quantile)
    passed = len(pooled) - tally.timed_failed
    worst = max(tally.errors, default=0.0)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": passed / sum(pooled),
        "op_ms.p50": 1e3 * statistics.median(pooled),
        "op_ms.tail": 1e3 * tail,
        "pass_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_margin": math.log10(workload.error_tol / max(worst, sys.float_info.min)),
    }
    details = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters: "
        + ", ".join(f"{s:.3f}" for s in setup_samples),
        "ops_per_s": f"{passed} passed of {len(pooled)} timed ops; "
        f"plain wall time gives {passed / tally.raw_wall:.4g} ops/s",
        "op_ms.tail": f"p{100 * workload.tail_quantile:.2f} of {len(pooled)} timed ops, {beyond} beyond it",
        "pass_frac": f"fail_frac = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}",
        "accuracy_margin": f"log10({workload.error_tol:g} / {workload.error_name} = {worst:.3e})",
    }
    return metrics, details


def measure_setup(workload: str, seed: int) -> list:
    """Wall time from starting a fresh interpreter to its first op being ready.

    Not normalised: start-up is file reads and unmarshalling, which the
    reference loop does not track (normalising it widened its spread).
    """
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                samples.append(time.perf_counter() - t0)
                proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return samples


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or the environment's request."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return str(getattr(handle, symbol)())
    return f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"


def git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
    }


def timed_run(workload, api, seconds: float) -> tuple[Tally, int]:
    tally = Tally()
    start = time.perf_counter()
    passes = 0
    while passes < workload.min_passes or time.perf_counter() - start < seconds:
        run_pass(workload, api, tally)
        passes += 1
    return tally, passes


def traced_run(workload, seconds: float, trace_csv: Path) -> tuple[Tally, int, dict]:
    """Alternate untraced and traced passes of the timed ops; per-layer metrics."""
    from spans import Tracer, entry_points, layer_metrics, patched
    from workloads import CliRun

    tracer = Tracer()
    plain, traced_api = entry_points(), entry_points(tracer)
    tally = Tally()
    untraced_wall = traced_wall = 0.0
    ranges = []
    bytes_written = 0
    start = time.perf_counter()
    while not ranges or time.perf_counter() - start < seconds:
        untraced_wall += run_pass(workload, plain, tally, probes=False)
        lo = len(tracer)
        with patched(tracer):
            traced_wall += run_pass(workload, traced_api, tally, probes=False)
        ranges.append((lo, len(tracer)))
        if len(ranges) == 1:
            bytes_written = sum(op.bytes_written() for op in workload.ops if isinstance(op, CliRun))
    metrics = layer_metrics(tracer, ranges, bytes_written)
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    tracer.write_csv(trace_csv, *ranges[0])
    return tally, len(ranges), metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0, help="least wall time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads
    from spans import entry_points

    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, work_dir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            tally, passes, layer = traced_run(workload, args.seconds, out_dir / f"{stem}-spans.csv")
            metrics = {name: value for name, (value, _) in layer.items()}
            units = {name: unit for name, (_, unit) in layer.items()}
            details = {"trace.overhead_frac": f"over {passes} untraced and {passes} traced passes"}
        else:
            setup = measure_setup(args.workload, args.seed)
            tally, passes = timed_run(workload, entry_points(), args.seconds)
            metrics, details = end_to_end(workload, tally, setup)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args.seed)
    correct = tally.timed_failed == 0
    print(f"workload {args.workload}, seed {args.seed}, {passes} passes of {len(workload.ops)} timed ops"
          + (f" and {len(workload.probes)} probes" if workload.probes and not args.trace else ""))
    for name, value in metrics.items():
        extra = f"  ({details[name]})" if name in details else ""
        print(f"  {name:<40} {value:>14.6g} {units[name]}{extra}")
    for detail, count in sorted(tally.failures.items()):
        print(f"  failed x{count}: {detail}")
    print("env " + json.dumps(env))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=args.workload, passes=passes, details=details,
                  failures=dict(tally.failures), env=env, op_seconds=tally.times)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
