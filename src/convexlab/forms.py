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
"""

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .quad import DEFAULT_Q, boundary_integral, interior_integral

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


class BoundaryField:
    """Scalar function on the boundary, parameterized by normal angle.

    Stores grid samples; derivatives come from the trigonometric interpolant
    unless analytic derivative samples are supplied.
    """

    def __init__(self, values, dvalues=None):
        self.values = np.asarray(values, dtype=float).copy()
        if self.values.ndim != 1:
            raise ValueError("boundary field must be a 1-D sample array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("boundary field samples must be finite")
        self.M = self.values.size
        self._d1 = None if dvalues is None else np.asarray(dvalues, dtype=float).copy()
        self._coeffs = None

    @classmethod
    def from_function(cls, fn, M, dfn=None):
        t = spectral.grid(M)
        return cls(fn(t), None if dfn is None else dfn(t))

    @classmethod
    def constant(cls, c, M):
        return cls(np.full(M, float(c)), np.zeros(M))

    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = spectral.coefficients(self.values)
        return self._coeffs

    def deriv(self, order=1):
        if order == 1 and self._d1 is not None:
            return self._d1
        return spectral.grid_derivative(self.values, order)

    def eval(self, theta, order=0):
        return spectral.evaluate(self.coeffs(), self.M, theta, order)

    # linear structure (bilinearity tests build combinations)
    def __add__(self, other):
        return BoundaryField(self.values + np.asarray(getattr(other, "values", other)))

    def __sub__(self, other):
        return BoundaryField(self.values - np.asarray(getattr(other, "values", other)))

    def __mul__(self, a):
        return BoundaryField(self.values * float(a))

    __rmul__ = __mul__

    def __neg__(self):
        return BoundaryField(-self.values)


class InteriorField:
    """Scalar function on K given as a vectorized closure, optional gradient."""

    def __init__(self, fn, grad=None, descriptor=None):
        self._fn = fn
        self._grad = grad
        self.descriptor = descriptor or {"kind": "closure"}

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls(lambda p: np.full(p.shape[:-1], c),
                   lambda p: np.zeros(p.shape),
                   descriptor={"kind": "constant", "c": c})

    @classmethod
    def coordinate(cls, i):
        e = np.zeros(2)
        e[i] = 1.0
        return cls(lambda p: p[..., i].copy(),
                   lambda p: np.broadcast_to(e, p.shape).copy(),
                   descriptor={"kind": "coordinate", "i": int(i)})

    @property
    def has_gradient(self):
        return self._grad is not None

    def value(self, points):
        return np.asarray(self._fn(np.asarray(points, dtype=float)), dtype=float)

    def gradient(self, points, step=1e-6):
        """Analytic gradient, or central differences with the given step."""
        pts = np.asarray(points, dtype=float)
        if self._grad is not None:
            return np.asarray(self._grad(pts), dtype=float)
        out = np.empty(pts.shape)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = step
            out[..., axis] = (self._fn(pts + e) - self._fn(pts - e)) / (2.0 * step)
        return out

    def __add__(self, other):
        if not isinstance(other, InteriorField):
            other = InteriorField.constant(other)
        g = None
        if self._grad is not None and other._grad is not None:
            g = lambda p, a=self._grad, b=other._grad: a(p) + b(p)
        return InteriorField(lambda p, a=self._fn, b=other._fn: a(p) + b(p), g)

    def __mul__(self, a):
        a = float(a)
        g = None if self._grad is None else (lambda p, f=self._grad: a * f(p))
        return InteriorField(lambda p, f=self._fn: a * f(p), g)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


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


def _as_boundary_field(rho, M):
    if isinstance(rho, BoundaryField):
        f = rho
    elif callable(rho):
        f = BoundaryField.from_function(rho, M)
    else:
        f = BoundaryField(np.broadcast_to(np.asarray(rho, dtype=float), (M,)))
    if f.M != M:
        raise ValueError("boundary field grid does not match the body grid")
    return f


def _fd_step(body):
    # central-difference step for gradient fallback: 1e-5 * body diameter
    return 1e-5 * 2.0 * float(body.values.max())


def form_P(body, u, rho0, rho1, Q=DEFAULT_Q):
    """Boundary form <rho0, rho1>_P (valid for the zero potential too)."""
    from .measure import weighted_mean_curvature

    r0 = _as_boundary_field(rho0, body.M)
    r1 = _as_boundary_field(rho1, body.M)
    w_pts = u.weight(body.boundary_grid)
    grad_term = float(np.sum(r0.deriv() * r1.deriv() * w_pts) * 2.0 * np.pi / body.M)
    hmu = weighted_mean_curvature(body, u)
    curv_term = boundary_integral(body, u, hmu * r0.values * r1.values)
    muK = interior_integral(body, u, 1.0, Q=Q)
    mean_term = boundary_integral(body, u, r0.values) * boundary_integral(body, u, r1.values) / muK
    return grad_term - curv_term + mean_term


def form_BL(body, u, phi0, phi1, Q=DEFAULT_Q, fd_step=None):
    """Interior (variance-type) form <phi0, phi1>_BL; needs del^2 u > 0."""
    u.require_strictly_convex("the interior variance form")
    from .measure import _inv_2x2

    if not isinstance(phi0, InteriorField):
        phi0 = InteriorField(phi0)
    if not isinstance(phi1, InteriorField):
        phi1 = InteriorField(phi1)
    step = _fd_step(body) if fd_step is None else fd_step
    from .quad import interior_nodes

    pts, wts = interior_nodes(body, Q)
    flat = pts.reshape(-1, 2)
    wmu = (wts * u.weight(pts)).reshape(-1)
    Hinv = _inv_2x2(u.hess(flat).reshape(-1, 2, 2))
    g0 = phi0.gradient(flat, step=step)
    g1 = phi1.gradient(flat, step=step)
    grad_term = float(np.sum(wmu * np.einsum("ijk,ik,ij->i", Hinv, g0, g1)))
    v0 = phi0.value(flat)
    v1 = phi1.value(flat)
    prod_term = float(np.sum(wmu * v0 * v1))
    muK = float(np.sum(wmu))
    mean_term = float(np.sum(wmu * v0)) * float(np.sum(wmu * v1)) / muK
    return grad_term - prod_term + mean_term


def form_I(body, u, rho, phi, Q=DEFAULT_Q):
    """Interaction form <rho, phi>_I between boundary and interior fields."""
    r = _as_boundary_field(rho, body.M)
    if not isinstance(phi, InteriorField):
        phi = InteriorField(phi)
    phi_on_boundary = phi.value(body.boundary_grid)
    muK = interior_integral(body, u, 1.0, Q=Q)
    cross = boundary_integral(body, u, r.values * phi_on_boundary)
    means = boundary_integral(body, u, r.values) * interior_integral(body, u, phi, Q=Q) / muK
    return cross - means


def check_mean_form(body, u, rho, phi, Q=DEFAULT_Q):
    """Report on the mean and the multiplicative inequality for one (rho, phi)."""
    rho = _as_boundary_field(rho, body.M)
    if not isinstance(phi, InteriorField):
        phi = InteriorField(phi)
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

    Note: direct computation shows this pair does NOT saturate the mean-form
    inequality for alpha > 0 (its slack equals alpha^2 (n - Var_{mu|K}(u + ...))
    type quantities and is strictly positive on generic data); the genuinely
    saturating family is the translation one, see translation_witness().
    """
    u.require_strictly_convex("the scaling equality witness")
    alpha = float(alpha)
    x0 = np.asarray(x0, dtype=float).reshape(2)
    z = float(z)
    rho = BoundaryField(alpha * (body.values + body.normals_grid @ x0))

    def phi_fn(pts):
        y = pts - x0
        return alpha * (np.einsum("...i,...i->...", y, u.grad(y)) - u.value(y)) + z

    def phi_grad(pts):
        y = pts - x0
        return alpha * np.einsum("...ij,...j->...i", u.hess(y), y)

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
        return np.einsum("...i,...i->...", u.grad(pts), np.broadcast_to(x0, pts.shape)) + z

    def phi_grad(pts):
        return np.einsum("...ij,...j->...i", u.hess(pts), np.broadcast_to(x0, pts.shape))

    phi = InteriorField(phi_fn, phi_grad,
                        descriptor={"kind": "translation-witness",
                                    "x0": x0.tolist(), "z": z})
    return rho, phi
