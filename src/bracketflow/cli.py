"""Command-line front end.

Verbs:
    run <scenario-file>                  integrate a scenario file
    catalog list                         show the authored entries
    catalog run <name> [--backward] [--horizon T]
    verify                               run the acceptance suite

Global flags --rel-tol and --out apply where meaningful; the integrator
has no absolute tolerance to set (see `flow.IntegratorOptions`).  Exit
codes: 0 success, 1 verdict contradicts expectations, 2 load/validation
error (a bad flag, an --out that cannot be a directory, a scenario file that
cannot be read or parsed), 3 integrator failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .catalog import catalog_entries, get_entry
from .flow import IntegratorOptions
from .scenario import Scenario, ScenarioError, load_scenario, run_scenario
from .verify import verify_all


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bracketflow",
        description="Homogeneous Ricci flow as an ODE on Lie-algebra structure constants.",
    )
    parser.add_argument("--rel-tol", type=float, default=None, help="integrator relative tolerance")
    parser.add_argument("--out", default=".", help="output directory for CSV and report files")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario file")
    p_run.add_argument("scenario", help="path to the scenario file")

    p_cat = sub.add_parser("catalog", help="inspect or run authored initial data")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    cat_sub.add_parser("list", help="list catalog entries")
    p_cat_run = cat_sub.add_parser("run", help="integrate a catalog entry")
    p_cat_run.add_argument("name")
    p_cat_run.add_argument("--backward", action="store_true", help="integrate backward in time")
    p_cat_run.add_argument("--horizon", type=float, default=None, help="time horizon (default per entry)")

    sub.add_parser("verify", help="run the full acceptance suite")
    return parser


def _base_options(args) -> IntegratorOptions:
    return IntegratorOptions() if args.rel_tol is None else IntegratorOptions(rel_tol=args.rel_tol)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _base_options(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "verify":
        return verify_all(opts)
    if args.command == "catalog" and args.catalog_command == "list":
        for entry in catalog_entries():
            dims = entry.bracket.dims
            fwd, bwd = entry.expected["forward"][0], entry.expected["backward"][0]
            print(
                f"{entry.name:<20} q={dims.q} n={dims.n}  R0={entry.r0:<8g} "
                f"forward={fwd:<9} backward={bwd:<9} cover={entry.universal_cover_note}"
            )
        return 0

    try:
        scenario = load_scenario(args.scenario) if args.command == "run" else _catalog_scenario(args)
        # --out is made before any run, so that a path that cannot be a
        # directory is a load error, not a traceback after the integration.
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: --out {args.out} is not a usable directory: {exc.strerror}", file=sys.stderr)
        return 2
    code, written = run_scenario(scenario, args.out, opts)
    for path in written:
        print(path)
    return code


def _catalog_scenario(args) -> Scenario:
    """The scenario of `catalog run`; ScenarioError on an unknown entry or a bad --horizon."""
    try:
        entry = get_entry(args.name)
    except KeyError as exc:
        raise ScenarioError(exc.args[0]) from exc
    direction = "backward" if args.backward else "forward"
    horizon = args.horizon if args.horizon is not None else entry.default_horizon[direction]
    if not (math.isfinite(horizon) and horizon > 0):
        raise ScenarioError(f"--horizon must be finite and positive, got {horizon}")
    return Scenario(
        name=entry.name,
        bracket=entry.bracket,
        source=entry.name,
        directions=(direction,),
        horizon=horizon,
        h2_note=entry.h2_note,
        expected={direction: entry.expected[direction]},
    )


if __name__ == "__main__":
    sys.exit(main())
