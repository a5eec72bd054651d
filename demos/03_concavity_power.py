#!/usr/bin/env python3
"""The boundary Euler-Lagrange equation and the concavity power p(mu, K).

The minimizer rho_bar of J(rho) = mu(K) <rho,rho>_P / (int rho dmu)^2 solves
L(rho_bar) = 1 for the boundary elliptic operator L, and

    p(mu, K) = mu(K) / int_dK rho_bar dmu

is the largest p with mu(K_t)^p concave under all support perturbations.
For a Gaussian disk everything is a one-line closed form, which the spectral
Galerkin solver reproduces to machine precision.
"""

import numpy as np

import convexlab as cl

gaussian = cl.gaussian_potential()

print("=" * 70)
print("1. the gaussian unit disk, solved and checked")
print("=" * 70)

disk = cl.disk(1.0)
rep = cl.solve_report(disk, gaussian)
print(f"p(mu, K)          = {rep['p']:.12f}      (exact: 1)")
print(f"rho_bar (constant) = {rep['rho_bar'].values.mean():.12f} "
      f"(exact: e^1/2 - 1 = {np.exp(0.5) - 1:.12f})")
print(f"strong residual ||L(rho_bar) - 1||_inf = {rep['strong_residual']:.2e}")
print(f"Rayleigh quotient at rho_bar: "
      f"{cl.rayleigh(disk, gaussian, rep['rho_bar']):.12f}")

print("\n" + "=" * 70)
print("2. radius scan against the closed form")
print("=" * 70)

print(f"{'R':>5} {'p computed':>18} {'p closed form':>18} {'diff':>10}")
for R in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
    p = cl.concavity_power(cl.disk(R), gaussian)
    oracle = 1 - (1 / R - R) * (np.exp(R * R / 2) - 1) / R
    print(f"{R:5.2f} {p:18.12f} {oracle:18.12f} {abs(p - oracle):10.2e}")
print("p(R) -> 1/2 as R -> 0+: the dimensional power 1/n in the plane")

print("\n" + "=" * 70)
print("3. structure of the solution")
print("=" * 70)

ellipse = cl.ellipse(2.0, 1.0)
rep = cl.solve_report(ellipse, gaussian)
coeffs = rep["rho_bar"].galerkin_coeffs
odd = max(max(abs(coeffs[2 * k - 1]), abs(coeffs[2 * k])) for k in range(1, 17, 2))
print(f"symmetric body + even measure: largest odd harmonic of rho_bar = {odd:.2e}")
p_even = cl.concavity_power(ellipse, gaussian, even_only=True)
print(f"even-restricted basis reproduces p: |dp| = {abs(p_even - rep['p']):.2e}")

print("\noperator identities:")
ids = cl.support_identity_check(ellipse, gaussian)
print(f"  L(h(nu)) = 1 + <grad u, x> - mean : residual {ids['pointwise_residual']:.2e}")
print(f"  int h dmu = 2 mu(K) - int <grad u, x> dmu : residual "
      f"{ids['integral_residual']:.2e}")

lebesgue = cl.zero_potential()
Lh = cl.apply_L(ellipse, lebesgue, ellipse)  # a body is a boundary field: L(h)
print(f"  Lebesgue mode: ||L(h) - 1||_inf = {np.abs(Lh.values - 1).max():.2e}")
