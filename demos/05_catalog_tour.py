"""Tour of the catalog: verdicts, extinction bounds, and the cover dichotomy.

Spaces whose universal cover is R^n (nilpotent and solvable groups here)
flow forever forward with R <= 0; anything else admits positive scalar
curvature and must die in finite forward time, no later than (n/2)/R(0).
Every non-flat entry hits a singularity in at least one time direction.
"""

import numpy as np

from bracketflow import catalog_entries, cover_dichotomy_check, integrate

forward_runs = {}
print(f"{'entry':<20}{'R(0)':>8}  {'forward':<22}{'backward':<22}{'cover':<10}{'bound (n/2)/R0'}")
for entry in catalog_entries():
    rows = {}
    for direction in ("forward", "backward"):
        traj = integrate(entry.bracket, direction, entry.default_horizon[direction])
        if direction == "forward":
            forward_runs[entry.name] = traj
        v = traj.verdict
        rows[direction] = v.kind if v.omega_est is None else f"{v.kind} @ {v.omega_est:.6f}"
    bound = f"{(entry.bracket.dims.n / 2) / entry.r0:+.4f}" if entry.r0 else "n/a"
    print(
        f"{entry.name:<20}{entry.r0:>8.2f}  {rows['forward']:<22}{rows['backward']:<22}"
        f"{entry.universal_cover_note:<10}{bound}"
    )

print("\ncover dichotomy check:")
for entry in catalog_entries():
    verdict = cover_dichotomy_check(entry, forward_runs[entry.name])
    print(f"  {'ok' if verdict.ok else 'FAIL':<5} {entry.name:<20} {verdict.detail}")

print("\nsign dichotomy: forward-immortal entries keep R <= 0, ancient-direction")
print("entries keep R >= 0; only the flat entry is eternal.")
