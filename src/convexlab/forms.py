"""The three bilinear forms P, BL, I and the inequalities tying them together.

With dmu = e^{-u} dx on a strictly convex planar body K:

    <r0, r1>_P  = int_dK <II^{-1} grad_dK r0, grad_dK r1> dmu
                  - int_dK H_mu r0 r1 dmu + (1/mu(K)) int r0 dmu int r1 dmu
    <f0, f1>_BL = int_K <(del^2 u)^{-1} grad f0, grad f1> dmu
                  - int_K f0 f1 dmu + (1/mu(K)) int f0 dmu int f1 dmu
    <r, f>_I    = int_dK r*f dmu - (1/mu(K)) int_dK r dmu int_K f dmu

In the plane the P gradient term collapses: grad_dK r = (r'/r) tau,
II^{-1} = r, dH^1 = r dtheta, so the integrand is r0'(theta) r1'(theta)
e^{-u(x(theta))} dtheta.

Two inequalities are checked:  <r,f>_I <= (P + BL)/2  (mean form) and
<r,f>_I^2 <= P*BL (multiplicative form).

What depends only on (K, u, Q), namely e^{-u} on the boundary and at the
interior nodes, H_mu, mu(K) and (del^2 u)^{-1} at the nodes, is evaluated
once by ``quad`` and read by each form from one record of its store,
``quad._context``, on every later pair on the same (K, u, Q).  The same
store keeps an interior field's values at the nodes per live (K, field, Q);
fields, like bodies and potentials, do not change after construction.  So a
pair pays only for its own fields, once each: ``check_mean_form`` evaluates
phi once on the interior nodes, where BL and I's interior mean share the
values, once on the boundary grid, and its gradient once on the nodes.

The forms take a ``BoundaryField`` rho (``spectral``; a body is one) and an
``InteriorField`` phi (``quad``); both are re-exported from here.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteIntegral
from .measure import _dot2, _hgg
from .quad import (DEFAULT_Q, InteriorField, _boundary_sum, _context, _node_values,
                   interior_integral)
from .spectral import BoundaryField

__all__ = [
    "BoundaryField",
    "InteriorField",
    "FormsReport",
    "form_P",
    "form_BL",
    "form_I",
    "check_mean_form",
    "equality_witness",
    "translation_witness",
]

SLACK_RTOL = 1e-9


@dataclass
class FormsReport:
    """Values of the three forms plus the inequality slacks on one (rho, phi)."""

    P: float
    BL: float
    I: float
    slack_mean: float
    slack_mult: float
    scale: float
    passed_mean: bool
    passed_mult: bool
    flags: dict = field(default_factory=dict)


def _boundary_field(rho, M):
    """rho, checked to be a BoundaryField on the body's M-point grid."""
    if not isinstance(rho, BoundaryField):
        raise ValueError(f"expected a BoundaryField, got {type(rho).__name__}")
    if rho.M != M:
        raise ValueError("boundary field grid does not match the body grid")
    return rho


def _interior_field(phi):
    """phi, checked to be an InteriorField."""
    if not isinstance(phi, InteriorField):
        raise ValueError(f"expected an InteriorField, got {type(phi).__name__}")
    return phi


def form_P(body, u, rho0, rho1, Q=DEFAULT_Q):
    """Boundary form <rho0, rho1>_P (valid for the zero potential too)."""
    same = rho1 is rho0
    d0 = _boundary_field(rho0, body.M).deriv()
    d1 = d0 if same else _boundary_field(rho1, body.M).deriv()
    c = _context(body, u, Q)
    grad_term = float((d0 * d1 * c.weight).sum() * 2.0 * np.pi / body.M)
    curv_term = _boundary_sum(u, c.measure, c.hmu * rho0.values * rho1.values)
    m0 = _boundary_sum(u, c.measure, rho0.values)
    m1 = m0 if same else _boundary_sum(u, c.measure, rho1.values)
    mean_term = m0 * m1 / c.muK
    return grad_term - curv_term + mean_term


def form_BL(body, u, phi0, phi1, Q=DEFAULT_Q):
    """Interior (variance-type) form <phi0, phi1>_BL; needs del^2 u > 0."""
    u.require_strictly_convex("the interior variance form")
    same = phi1 is phi0
    step = 1e-5 * 2.0 * float(body.values.max())  # gradient fallback: 1e-5 * diameter
    c = _context(body, u, Q, bl=True)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite value raises below
        g0 = _interior_field(phi0).gradient(c.flat, step=step)
        g1 = g0 if same else _interior_field(phi1).gradient(c.flat, step=step)
        grad_term = float((c.wmu * _hgg(c.hinv, g0, g1)).sum())
        v0 = _node_values(body, phi0, c.flat)
        v1 = v0 if same else _node_values(body, phi1, c.flat)
        wv0 = c.wmu * v0  # read by the product and the mean term
        prod_term = float((wv0 * v1).sum())
        m0 = float(wv0.sum())
        m1 = m0 if same else float((c.wmu * v1).sum())
        val = grad_term - prod_term + m0 * m1 / c.muK
    if not np.isfinite(val):
        names = phi0.descriptor if same else (phi0.descriptor, phi1.descriptor)
        raise NonFiniteIntegral(f"BL form of {names!r} against {u!r} is {val}")
    return val


def form_I(body, u, rho, phi, Q=DEFAULT_Q):
    """Interaction form <rho, phi>_I between boundary and interior fields."""
    r = _boundary_field(rho, body.M)
    phi_on_boundary = _interior_field(phi).value(body.boundary_grid)
    c = _context(body, u, Q)
    phi_int = interior_integral(body, u, phi, Q=Q)
    cross = _boundary_sum(u, c.measure, r.values * phi_on_boundary)
    means = _boundary_sum(u, c.measure, r.values) * phi_int / c.muK
    return cross - means


def check_mean_form(body, u, rho, phi, Q=DEFAULT_Q):
    """Report on the mean and the multiplicative inequality for one (rho, phi).

    BL and I's interior mean read one evaluation of phi on the interior nodes,
    kept in ``quad``'s store for as long as phi lives.  The refusals come in
    the standalone forms' order, P's, BL's, then I's, so a potential that is
    not strictly convex is refused before any BL node work.
    """
    P = form_P(body, u, rho, rho, Q=Q)
    BL = form_BL(body, u, phi, phi, Q=Q)
    I = form_I(body, u, rho, phi, Q=Q)
    scale = max(abs(P), abs(BL), 1.0)
    slack_mean = 0.5 * (P + BL) - I
    slack_mult = P * BL - I * I
    return FormsReport(
        P=P, BL=BL, I=I,
        slack_mean=slack_mean, slack_mult=slack_mult, scale=scale,
        passed_mean=bool(slack_mean >= -SLACK_RTOL * scale),
        passed_mult=bool(slack_mult >= -SLACK_RTOL * scale**2),
        flags={"bl_gradient_fd": not phi.has_gradient},
    )


def equality_witness(body, u, alpha, x0=(0.0, 0.0), z=0.0):
    """The scaling-family pair rho = alpha*h_{K+x0}(nu), phi = alpha*u*(grad u(x-x0)) + z.

    phi is built through Young's identity u*(grad u(y)) = <y, grad u(y)> - u(y)
    with y = x - x0, so no numerical conjugate enters.

    Note: this pair does NOT saturate the mean-form inequality for alpha > 0.
    Its rho with phi_c = alpha (u*(grad u) + <x0, grad u>) + z, the scaling pair
    plus the translation pair, has the mean slack alpha^2 mu(K) (n - Var_{mu|K}(u))
    / 2 > 0 (varentropy bound) at every x0.  With dphi = phi - phi_c, which is 0
    at x0 = 0, this pair's slack exceeds that by BL(phi_c, dphi) + BL(dphi, dphi)/2
    - I(rho, dphi).  The saturating family is the translation one, see
    translation_witness().
    """
    u.require_strictly_convex("the scaling equality witness")
    alpha = float(alpha)
    x0 = np.asarray(x0, dtype=float).reshape(2)
    z = float(z)
    rho = BoundaryField(alpha * (body.values + body.normals_grid @ x0))

    def phi_fn(pts):
        y = pts - x0
        return alpha * (_dot2(y, u.grad(y)) - u.value(y)) + z

    def phi_grad(pts):
        y = pts - x0
        return alpha * _dot2(u.hess(y), y[..., None, :])

    phi = InteriorField(phi_fn, phi_grad,
                        descriptor={"kind": "scaling-witness", "alpha": alpha,
                                    "x0": x0.tolist(), "z": z})
    return rho, phi


def translation_witness(body, u, x0, z=0.0):
    """The translation pair rho = <x0, nu>, phi = <x0, grad u(x)> + z.

    Generated by the flow K_t = K + t*x0, u_t = u(. - t*x0), whose
    log-marginal is exactly affine in t; the pair therefore saturates both
    the mean and the multiplicative inequality (P = BL = I).
    """
    u.require_strictly_convex("the translation equality witness")
    x0 = np.asarray(x0, dtype=float).reshape(2)
    z = float(z)
    rho = BoundaryField(body.normals_grid @ x0)

    def phi_fn(pts):
        return _dot2(u.grad(pts), x0) + z

    def phi_grad(pts):
        return _dot2(u.hess(pts), x0)

    phi = InteriorField(phi_fn, phi_grad,
                        descriptor={"kind": "translation-witness",
                                    "x0": x0.tolist(), "z": z})
    return rho, phi
