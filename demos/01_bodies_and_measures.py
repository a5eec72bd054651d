#!/usr/bin/env python3
"""Bodies, potentials, and quadrature: the raw material.

A planar convex body lives here as samples of its support function h(theta)
on a uniform normal-angle grid; everything else (boundary points, curvature,
arclength) comes from the trigonometric interpolant.  A log-concave measure
is e^{-u} dx for a convex potential u.  This script builds the standard
examples and checks the basic closed forms along the way.
"""

import numpy as np

import convexlab as cl

print("=" * 70)
print("1. bodies from support functions")
print("=" * 70)

disk = cl.disk(1.0)
ellipse = cl.ellipse(2.0, 1.0)
blob = cl.fourier_body(1.0, cos={2: 0.15}, sin={3: 0.05})

for body in (disk, ellipse, blob):
    r = body.radius_grid
    print(f"{body.descriptor['kind']:>8}: min curvature radius {r.min():.4f}, "
          f"max {r.max():.4f}, origin-symmetric: {body.is_even}")

bp = cl.boundary_point(ellipse, 0.0)
print(f"\nellipse boundary point at normal angle 0: x = {bp.x.round(12)}")
print(f"curvature radius there: {bp.r:.6f}   (b^2/a = {1.0 / 2.0})")

print("\nCauchy formula: perimeter = int r dtheta = int h dtheta")
w = 2 * np.pi / disk.M
print(f"  disk(1):  {disk.radius_grid.sum() * w:.12f}  vs  2*pi = {2 * np.pi:.12f}")

print("\n" + "=" * 70)
print("2. gauge function and Minkowski structure")
print("=" * 70)

x = np.array([1.0, 1.0])
print(f"gauge of {x} in the 2x1 ellipse: {cl.gauge(ellipse, x):.12f} "
      f"(sqrt(1/4 + 1) = {np.sqrt(1.25):.12f})")

mid = cl.minkowski_combine(ellipse, disk, 0.5)
print(f"(1/2)ellipse + (1/2)disk support at angle 0: {mid.eval(0.0):.6f} (= 1.5)")

f = cl.BoundaryField.from_function(lambda t: np.cos(2 * t), disk.M)
wulff = cl.wulff_perturb(disk, f, 0.2)
print(f"Wulff [h + 0.2 cos(2t)] min curvature radius: {wulff.radius_grid.min():.4f} "
      "(= 1 - 0.6)")
try:
    cl.wulff_perturb(disk, f, 0.5)
except cl.PerturbationTooLarge as exc:
    print(f"t = 0.5 is rejected: {exc}")

print("\n" + "=" * 70)
print("3. potentials and the measure weight")
print("=" * 70)

gaussian = cl.gaussian_potential()
quad14 = cl.quadratic_potential([[1.0, 0.0], [0.0, 4.0]])
quartic = cl.even_quartic_potential(0.1)
print(f"gaussian pinching (k1, k2): {gaussian.pinching}")
print(f"quadratic diag(1,4) pinching: {quad14.pinching}  (ratio r = 4)")
print(f"even-quartic pinching: {quartic.pinching} (no global upper bound)")

val, grad_star = cl.conjugate(quad14, np.array([1.0, 2.0]))
print(f"\nLegendre conjugate of the quadratic at (1,2): {float(val):.6f} "
      f"(closed form {0.5 * (1 + 4 * 0.25):.6f})")

print("\n" + "=" * 70)
print("4. quadrature against mu = e^{-u} dx")
print("=" * 70)

muK = cl.interior_integral(disk, gaussian)
muBd = cl.boundary_integral(disk, gaussian)
print(f"mu(K) for the unit disk:   {muK:.12f}  vs  2*pi*(1-e^-1/2) = "
      f"{2 * np.pi * (1 - np.exp(-0.5)):.12f}")
print(f"mu(dK):                    {muBd:.12f}  vs  2*pi*e^-1/2     = "
      f"{2 * np.pi * np.exp(-0.5):.12f}")

moment = cl.forms.InteriorField(
    lambda p: np.einsum("...i,...i->...", gaussian.grad(p), p))
lhs = cl.boundary_integral(blob, gaussian, blob.values)
rhs = 2 * cl.interior_integral(blob, gaussian) - cl.interior_integral(
    blob, gaussian, moment)
print("\ndivergence identity int h dmu = 2 mu(K) - int <grad u, x> dmu")
print(f"  generic body residual: {abs(lhs - rhs):.2e}")
