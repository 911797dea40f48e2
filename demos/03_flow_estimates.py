"""The measured estimates behind the flow's qualitative behavior.

Along every trajectory the package tracks: the cubic velocity bound
|dmu/dt| <= C |mu|^3, the scalar-curvature evolution dR/dt = 2 tr Ric^2,
monotonicity of R, the extinction-time comparison, and (for blowups) the
norm floor (omega - t)^(1/2) |mu|.
"""

from bracketflow import estimate_report, get_entry, integrate

for name, direction, horizon in [
    ("heisenberg3", "forward", 100.0),
    ("heisenberg3", "backward", 1.0),
    ("su2_round", "forward", 2.0),
    ("hyperbolic_plane", "backward", 1.0),
    ("abelian3", "forward", 10.0),
]:
    entry = get_entry(name)
    traj = integrate(entry.bracket, direction, horizon)
    rep = estimate_report(traj)
    print(f"{name} ({direction}): verdict = {traj.verdict.kind}")
    print(f"    max |dmu/dt| / |mu|^3      = {rep.velocity_ratio_max:.6f}")
    print(f"    worst dR/dt vs 2 tr Ric^2  = {rep.scalar_evolution_max_relerr:.2e} (relative)")
    print(f"    worst drop of R            = {rep.monotone_R_violation:.2e} (relative to |R|)")
    if rep.tail_norm_floor is not None:
        print(f"    norm floor on the tail     = {rep.tail_norm_floor:.6f}")
    if rep.comparison_slack is not None:
        print(f"    comparison slack (R0 > 0)  = {rep.comparison_slack:+.2e} (relative to the comparison R)")
    if traj.verdict.kind == "blowup":
        print(f"    singular time estimate     = {traj.verdict.omega_est:.9f}")
    print()

print("closed-form floors: heisenberg sqrt(2/3) = 0.816497, su(2) sqrt(6) = 2.449490,")
print("hyperbolic plane 1.0; all extinction times meet (n/2)/R0 with equality for")
print("Einstein metrics (su2: 1, hyperbolic plane: -1/2).")
