#!/usr/bin/env python3
"""Spectral constants of the boundary form: improvement, coercivity, stability.

Three constants attach to <.,.>_P on a given (K, mu):

  * lambda1 > 1: the improved inequality  energy <= (1/lambda1) stiffness
    (+inf when no discretized field has positive energy);
  * C > 0: coercivity <rho,rho>_P >= C ||rho||_{H^1}^2, which powers the
    Lax-Milgram solve, with 1/sqrt(C) the stability constant in
    ||rho||_{H^1} <= sqrt(deficit/C);
  * the interpolation constant sup ||rho||_{L2}^2 / (P^{1/2} ||rho||_{H1}).

For Gaussian disks the first two have one-harmonic closed forms, printed
below next to the pencil eigenvalues.
"""

import numpy as np

import convexlab as cl

gaussian = cl.gaussian_potential()

print("=" * 70)
print("1. lambda1 on gaussian disks: closed form 1/(1 - R^2) for R < 1")
print("=" * 70)

for R in (0.3, 0.5, 0.8, 1.0, 2.0):
    lam, lam_res, note = cl.lambda1(cl.assemble(cl.disk(R), gaussian))
    oracle = 1 / (1 - R * R) if R < 1 else np.inf
    print(f"R = {R:4.1f}: lambda1 = {lam if np.isfinite(lam) else np.inf:>12.8f}  "
          f"closed form {oracle:>12.8f}  {note}")
print("(for R >= 1 the weighted curvature H_mu <= 0 kills the energy form,")
print(" and the inequality holds trivially: lambda1 = +inf)")

print("\n" + "=" * 70)
print("2. coercivity constant: closed form R^3/(R^2 + 1) on gaussian disks")
print("=" * 70)

for R in (0.5, 1.0, 1.6):
    C = cl.coercivity_constant(cl.assemble(cl.disk(R), gaussian))
    print(f"R = {R:4.1f}: C = {C:.12f}  closed form {R**3 / (R * R + 1):.12f}")

ellipse = cl.ellipse(2.0, 1.0)
rep = cl.coercivity_report(cl.assemble(ellipse, gaussian))
print(f"\nellipse(2,1): C = {rep['C']:.8f}, stability constant 1/sqrt(C) = "
      f"{rep['stability_constant']:.8f}")
print(f"deficit scaling on delta-families: slope {rep['slope']:.15f} (exact 1/2)")
print(f"norm <= sqrt(deficit/C) on the family: {rep['bound_holds']}")

print("\n" + "=" * 70)
print("3. interpolation constant (empirical sup over random fields)")
print("=" * 70)

sizes = (500, 1000)
sups = cl.interpolation_constant(cl.assemble(cl.disk(1.0), gaussian), sample_size=sizes)
for n, c in zip(sizes, sups):
    print(f"sample {n:5d}: sup ratio = {c:.8f}")
print(f"constant-field ratio sqrt(mu(K)/mu(dK)) = "
      f"{np.sqrt((1 - np.exp(-0.5)) / np.exp(-0.5)):.8f}")
