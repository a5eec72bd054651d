"""Quadrature against mu = e^{-u} dx on a body K and its boundary.

Boundary integrals use the trapezoidal rule on the normal-angle grid, which
is spectrally accurate for smooth periodic integrands:

    int_{dK} g dmu = sum_j g(theta_j) e^{-u(x_j)} r_j * (2*pi/M).

Interior integrals use the star-shaped parameterization (s, theta) -> s*x(theta)
over s in [0, 1] (Gauss-Legendre) and theta (trapezoid).  The map has Jacobian

    det d(s*x)/d(s, theta) = det[x, s*r*tau] = s * r(theta) * <x, nu> = s*h*r,

so  int_K g dmu = int_0^1 int_0^{2pi} g(s*x) e^{-u(s*x)} s*h*r  dtheta ds.

The radial Gauss-Legendre rule depends on Q alone, so it is built once per Q
per process.  This module is the one owner of every value on the interior
nodes and the boundary grid: what depends only on (body, Q) or (body, u, Q),
namely the interior nodes and weights, e^{-u} at the nodes and on the boundary
grid, e^{-u}*r, H_mu, mu(K), BL's weights and (del^2 u)^{-1} at the nodes, and
the passed check of u's declared pinching on the nodes and the boundary grid;
and an interior field's values at the nodes, per (body, field, Q).  Each is
computed once and read by ``forms``, ``pde``, ``flow`` and ``analysis``
through the private readers below (the forms through one record per (body,
u, Q), with (del^2 u)^{-1} as contiguous columns).  The arrays are read-only,
held through weak references to the body and to the potential or field, so
they go when either object does.  A non-finite result raises NonFiniteIntegral.

``InteriorField``, a function on K given by a closure and an optional
gradient, lives here with the integrals and the store that read it.
"""

import functools
import weakref
from collections import namedtuple

import numpy as np

from .errors import InvalidInput, NonFiniteIntegral
from .measure import _entries, _inv_entries, verify_pinching, weighted_mean_curvature

__all__ = ["boundary_integral", "interior_integral", "interior_nodes"]

DEFAULT_Q = 32

# body -> (its own entries, WeakKeyDictionary of potential or field -> entries).
# Bodies, potentials and fields do not change after construction, so an entry
# holds while both objects live, and the weak keys drop it when either goes.
_SHARED = weakref.WeakKeyDictionary()


def _shared(body, u, key, build):
    """build(), made once per live body (u None) or (body, u) and key; read-only.

    u is a potential, or an interior field for its node values.
    """
    entry = _SHARED.get(body)
    if entry is None:
        entry = _SHARED[body] = ({}, weakref.WeakKeyDictionary())
    table, per_u = entry
    if u is not None:
        table = per_u.get(u)
        if table is None:
            table = per_u[u] = {}
    value = table.get(key)
    if value is None:
        value = build()
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        table[key] = value
    return value


def _boundary_weight(body, u):
    """e^{-u} on the boundary grid."""
    return _shared(body, u, "boundary_weight", lambda: u.weight(body.boundary_grid))


def _boundary_measure(body, u):
    """e^{-u} r on the boundary grid: the density of mu on dK against dtheta."""
    return _shared(body, u, "boundary_measure",
                   lambda: _boundary_weight(body, u) * body.radius_grid)


def _hmu(body, u):
    """H_mu on the boundary grid."""
    return _shared(body, u, "hmu", lambda: weighted_mean_curvature(body, u))


def _node_weight(body, u, pts):
    """e^{-u} at the interior nodes ``pts`` = interior_nodes(body, Q)[0]."""
    return _shared(body, u, ("node_weight", len(pts)), lambda: u.weight(pts))


def _mu(body, u, Q):
    """mu(K) = interior_integral(body, u, 1.0, Q), kept as a 0-d array."""
    return float(_shared(body, u, ("muK", Q),
                         lambda: np.array(interior_integral(body, u, 1.0, Q))))


def _check_pinching(body, u, Q):
    """Check u's declared pinching on the boundary grid and the nodes of (body, Q).

    The check runs once per (body, u, Q).  Only a pass is stored, so a
    violation raises PinchingViolation on every call.
    """
    pts, _ = interior_nodes(body, Q)

    def build():
        verify_pinching(u, body.boundary_grid)
        verify_pinching(u, pts)
        return True

    _shared(body, u, ("pinching", Q), build)


def _node_values(body, phi, flat):
    """The interior field phi's values at the (Q*M, 2) interior nodes ``flat``."""
    return _shared(body, phi, ("values", len(flat)), lambda: phi.value(flat))


# What the forms read on one (body, u, Q): e^{-u}, e^{-u} r and H_mu on the
# boundary grid, mu(K), the flat nodes, their weights and e^{-u} there; and,
# only if asked for (P and I hold for u == 0 too), BL's flat mu-weights and
# (del^2 u)^{-1} as a (4, Q*M) array of contiguous columns h00, h01, h10, h11.
_Context = namedtuple("_Context", "weight measure hmu muK flat weights node_weight wmu hinv",
                      defaults=(None, None))


def _context(body, u, Q, bl=False):
    """The _Context of (body, u, Q), with BL's part if bl, in one store lookup."""
    def build():
        pts, weights = interior_nodes(body, Q)
        if bl:
            c = _context(body, u, Q)
            return c._replace(wmu=(weights * c.node_weight).reshape(-1),
                              hinv=np.stack(_inv_entries(*_entries(u.hess(c.flat)))))
        return _Context(_boundary_weight(body, u), _boundary_measure(body, u), _hmu(body, u),
                        _mu(body, u, Q), pts.reshape(-1, 2), weights, _node_weight(body, u, pts))

    return _shared(body, u, ("context", Q, bl), build)


def _field_on_grid(g, body):
    """Boundary integrand as grid values: array, BoundaryField or scalar."""
    vals = np.asarray(getattr(g, "values", g), dtype=float)
    if vals.ndim == 0:
        vals = np.full(body.M, float(vals))
    if vals.shape != (body.M,):
        raise ValueError("boundary integrand does not match the body grid")
    return vals


def _boundary_sums(measure, vals):
    """Boundary integrals of grid values vals against the density measure: of one field,
    or of each row of a stack of fields with the bits of that field alone."""
    return (vals * measure).sum(axis=-1) * 2.0 * np.pi / measure.size


def _require_finite_sums(u, *sums):
    """Refuse the first of the boundary integrals sums against u that is not finite."""
    for val in sums:
        if not np.isfinite(val):
            raise NonFiniteIntegral(f"boundary integral against {u!r} is {val}")


def boundary_integral(body, u, g=1.0):
    """Integral of g over the boundary of K against mu."""
    val = _boundary_sums(_boundary_measure(body, u), _field_on_grid(g, body))
    _require_finite_sums(u, val)
    return float(val)


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
        g = None
        if self._grad is not None and other._grad is not None:
            g = lambda p, a=self._grad, b=other._grad: a(p) + b(p)
        return InteriorField(lambda p, a=self._fn, b=other._fn: a(p) + b(p), g)

    def __mul__(self, a):
        a = float(a)
        g = None if self._grad is None else (lambda p, f=self._grad: a * f(p))
        return InteriorField(lambda p, f=self._fn: a * f(p), g)

    __rmul__ = __mul__


@functools.lru_cache(maxsize=16)
def _radial_rule(Q):
    """Gauss-Legendre nodes s and weights sw on [0, 1], as read-only arrays."""
    sq, sw = np.polynomial.legendre.leggauss(Q)
    s = 0.5 * (sq + 1.0)
    sw = 0.5 * sw
    s.flags.writeable = False
    sw.flags.writeable = False
    return s, sw


def interior_nodes(body, Q=DEFAULT_Q):
    """Tensor nodes s_q * x(theta_j) with weights for integration against dx.

    Returns read-only (points, weights) with points of shape (Q, M, 2); the
    weights include the Jacobian s*h*r and both quadrature weights, so that
    int_K F dx = sum(weights * F(points)).  Q must be an integer >= 1.
    """
    body.require_interior_origin()
    if not (isinstance(Q, (int, np.integer)) and Q >= 1):
        raise InvalidInput(f"quadrature order Q must be an integer >= 1, got {Q!r}")
    return _shared(body, None, ("nodes", Q), lambda: _build_nodes(body, Q))


def _build_nodes(body, Q):
    s, sw = _radial_rule(Q)
    pts = s[:, None, None] * body.boundary_grid[None, :, :]
    jac = body.values * body.radius_grid  # h*r on the grid
    weights = (sw * s)[:, None] * jac[None, :] * (2.0 * np.pi / body.M)
    return pts, weights


def interior_integral(body, u, g=1.0, Q=DEFAULT_Q):
    """Integral of g over K against mu = e^{-u} dx.

    g is a scalar, an InteriorField, or an array of g's values at the nodes
    ``interior_nodes(body, Q)[0]``.  An InteriorField's node values are read
    from the store, so a field integrated again on the same (body, Q), or
    already read by ``forms.form_BL``, is not evaluated again.
    """
    pts, weights = interior_nodes(body, Q)
    w = _node_weight(body, u, pts)
    if isinstance(g, np.ndarray):
        if g.shape != pts.shape[:-1]:
            raise ValueError("interior integrand does not match the quadrature nodes")
        vals = g
    elif isinstance(g, InteriorField):
        vals = _node_values(body, g, pts.reshape(-1, 2)).reshape(pts.shape[:-1])
    elif np.isscalar(g):
        vals = np.full(pts.shape[:-1], float(g))
    else:
        raise ValueError("interior integrand must be a scalar, an InteriorField or "
                         f"node values, not {type(g).__name__}")
    val = float((weights * vals * w).sum())
    if not np.isfinite(val):
        name = "node values" if isinstance(g, np.ndarray) else repr(getattr(g, "descriptor", g))
        raise NonFiniteIntegral(f"interior integral of {name} against {u!r} is {val}")
    return val
