#!/usr/bin/env python3
"""The joint Wulff/Legendre flow and its shape derivatives.

K_t = [h + t f] moves the body, u_t = (u* + t psi)* moves the potential, and

    S(t) = log int_{K_t} e^{-u_t} dx

is concave on the admissible window.  The explicit formulas for I'(0) and
I''(0) are validated against finite differences, and the second derivative is
tied back to the bilinear forms through

    S''(0) I(0) = -( P + BL - 2 I ).

Two flows with exactly computable S: the translation flow (affine S, the
genuine equality case) and the homothety flow f = h, psi = u*, whose S is
strictly concave with S''(0) = Var_{mu|K}(u) - n.
"""

import numpy as np

import convexlab as cl

disk = cl.disk(1.0)
gaussian = cl.gaussian_potential()
blob = cl.fourier_body(1.0, cos={2: 0.15}, sin={3: 0.05})
quartic = cl.even_quartic_potential(0.1)

print("=" * 70)
print("1. concavity of the log-marginal")
print("=" * 70)

f = cl.BoundaryField.from_function(lambda t: np.cos(2 * t) + 0.1 * np.sin(3 * t),
                                   blob.M)
psi = cl.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
tab = cl.marginal_S(blob, quartic, cl.FlowConfig(f=f, psi=psi, eps=0.08, n_t=21))
print(f"generic flow (quartic potential, Newton path): eps = {tab['eps']}")
print(f"max centered second difference of S: {tab['max_second_difference']:.3e}"
      " (concave)")

print("\n" + "=" * 70)
print("2. derivative formulas vs finite differences")
print("=" * 70)

d = cl.shape_derivatives(blob, quartic, f, psi)
from convexlab.flow import marginal_value

h1, h2 = 1e-4, 1e-3
fd1 = (marginal_value(blob, quartic, f, psi, h1, 32)
       - marginal_value(blob, quartic, f, psi, -h1, 32)) / (2 * h1)
fd2 = (marginal_value(blob, quartic, f, psi, h2, 32) - 2 * d["I0"]
       + marginal_value(blob, quartic, f, psi, -h2, 32)) / h2**2
print(f"I'(0)  explicit {d['I1']:+.12f}   FD {fd1:+.12f}   rel err "
      f"{abs(fd1 - d['I1']) / abs(d['I1']):.1e}")
print(f"I''(0) explicit {d['I2']:+.12f}   FD {fd2:+.12f}   rel err "
      f"{abs(fd2 - d['I2']) / abs(d['I2']):.1e}")

rep = cl.mean_form_from_flow(blob, quartic, f, psi)
print(f"\ncross-module identity S''(0) I(0) = -(P + BL - 2I):")
print(f"  flow side  {rep['flow_side']:+.12f}")
print(f"  forms side {rep['forms_side']:+.12f}   mismatch {rep['mismatch']:.2e}")

print("\n" + "=" * 70)
print("3. two exactly solvable flows")
print("=" * 70)

x0 = np.array([0.5, 0.1])
f_tr = cl.BoundaryField(disk.normals_grid @ x0)
psi_tr = cl.QuadraticPerturbation(b=x0, c=-0.3)
d_tr = cl.shape_derivatives(disk, gaussian, f_tr, psi_tr)
print(f"translation flow: S''(0) = {d_tr['S2']:+.2e}  (affine S: equality case)")

f_h = disk  # f = h: a body is a boundary field
psi_h = cl.ConjugatePerturbation(gaussian, 1.0)
d_h = cl.shape_derivatives(disk, gaussian, f_h, psi_h)
muK = d_h["I0"]
u_field = cl.InteriorField(lambda p: gaussian.value(p))
u_sq = cl.InteriorField(lambda p: gaussian.value(p) ** 2)
var = (cl.interior_integral(disk, gaussian, u_sq) / muK
       - (cl.interior_integral(disk, gaussian, u_field) / muK) ** 2)
print(f"homothety flow:   S''(0) = {d_h['S2']:+.9f}")
print(f"                  Var(u) - n = {var - 2:+.9f}   (independent oracle)")
print("the homothety marginal is strictly concave, not affine: scaling the")
print("body and the conjugate potential together is not an equality direction")

print("\nclosed-form marginal check for the homothety flow:")
tab = cl.marginal_S(disk, gaussian, cl.FlowConfig(f=f_h, psi=psi_h, eps=0.1, n_t=5))
s = 1 + tab["t"]
oracle = 2 * np.pi * s * (1 - np.exp(-s / 2))
print(f"  max |I(t) - 2 pi (1+t)(1 - e^(-(1+t)/2))| = "
      f"{np.abs(tab['I'] - oracle).max():.2e}")
