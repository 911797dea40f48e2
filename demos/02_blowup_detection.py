"""Finite-time singularity detection and singular-time estimation.

The round su(2) metric collapses at t = 1; the flow reduces to c' = c^3/2
with |mu(t)| = sqrt(6) (1-t)^(-1/2).  The integrator stops once the
comparison bound n / (2R) on the time left falls below 1e-9 t, locates the
singular time by one Newton step on 1/R from the stop sample,
omega_est = t + R / (2 tr Ric^2), and encloses it in [t_stop, far_bound]:
the stop sample's time and the comparison bound n / (2R) past it, evaluated
on the integrated run.  The growth exponent comes from an explicit
power-law fit to the tail.
"""

import numpy as np

from bracketflow import estimate_blowup_time, fit_power_blowup, get_entry, integrate, type_I_diagnostic

su2 = get_entry("su2_round").bracket
traj = integrate(su2, "forward", horizon=2.0)

v = traj.verdict
print("verdict:", v.kind)
print(f"  singular time (Newton, 1/R): {v.omega_est:.12f}")
print(f"  not after                  : {v.far_bound:.12f} (comparison bound on R)")
print(f"  samples recorded           : {traj.n_samples}, last |mu| = {traj.mu_norm[-1]:.3e}")

est, (lo, hi) = estimate_blowup_time(traj)
print(f"  enclosure [t_stop, far]    : [{lo:.12f}, {hi:.12f}]")

fit = fit_power_blowup(traj.t, traj.mu_norm)
print(f"  fitted growth exponent     : {fit.exponent:.4f} (exact: -1/2)")

# The scalar curvature diverges like (3/2)/(1-t): check a few samples.
print("\nR(t) * (1 - t) along the approach (exact value 3/2):")
for target in (0.5, 0.9, 0.99, 0.999):
    k = int(np.argmin(np.abs(traj.t - target)))
    print(f"  t = {traj.t[k]:.6f}   R*(1-t) = {traj.scalar_R[k] * (1 - traj.t[k]):.9f}")

# (omega - t) |Riem| stays bounded: the singularity is type-I.
print("\ntype-I diagnostic sup (omega-t)|Riem| =", round(type_I_diagnostic(traj), 6),
      "(sqrt(3)/2 for the shrinking round sphere)")

# Backward time: the Heisenberg geometry is ancient-limited at -1/3.
heis = get_entry("heisenberg3").bracket
back = integrate(heis, "backward", horizon=1.0)
print("\nheisenberg backward:", back.verdict.kind,
      f" alpha_est = {back.verdict.omega_est:.9f} (exact -1/3)",
      f" R at last sample = {back.scalar_R[-1]:.3e} -> -inf")
