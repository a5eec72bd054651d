"""Quadrature against mu = e^{-u} dx on a body K and its boundary.

Boundary integrals use the trapezoidal rule on the normal-angle grid, which
is spectrally accurate for smooth periodic integrands:

    int_{dK} g dmu = sum_j g(theta_j) e^{-u(x_j)} r_j * (2*pi/M).

Interior integrals use the star-shaped parameterization (s, theta) -> s*x(theta)
over s in [0, 1] (Gauss-Legendre) and theta (trapezoid).  The map has Jacobian

    det d(s*x)/d(s, theta) = det[x, s*r*tau] = s * r(theta) * <x, nu> = s*h*r,

so  int_K g dmu = int_0^1 int_0^{2pi} g(s*x) e^{-u(s*x)} s*h*r  dtheta ds.
"""

import numpy as np

__all__ = ["boundary_integral", "interior_integral", "interior_nodes"]

DEFAULT_Q = 32


def _field_on_grid(g, body):
    """Boundary integrand as grid values: array, BoundaryField, callable, or scalar."""
    vals = getattr(g, "values", g)
    if callable(vals):
        vals = vals(body.theta_grid)
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 0:
        vals = np.full(body.M, float(vals))
    if vals.shape != (body.M,):
        raise ValueError("boundary integrand does not match the body grid")
    return vals


def boundary_integral(body, u, g=1.0):
    """Integral of g over the boundary of K against mu."""
    vals = _field_on_grid(g, body)
    w = u.weight(body.boundary_grid) * body.radius_grid
    return float(np.sum(vals * w) * 2.0 * np.pi / body.M)


def interior_nodes(body, Q=DEFAULT_Q):
    """Tensor nodes s_q * x(theta_j) with weights for integration against dx.

    Returns (points, weights) with points of shape (Q, M, 2); the weights
    include the Jacobian s*h*r and both quadrature weights, so that
    int_K F dx = sum(weights * F(points)).
    """
    body.require_interior_origin()
    sq, sw = np.polynomial.legendre.leggauss(int(Q))
    s = 0.5 * (sq + 1.0)
    sw = 0.5 * sw
    pts = s[:, None, None] * body.boundary_grid[None, :, :]
    jac = body.values * body.radius_grid  # h*r on the grid
    weights = (sw * s)[:, None] * jac[None, :] * (2.0 * np.pi / body.M)
    return pts, weights


def _field_on_points(g, pts):
    if np.isscalar(g) or isinstance(g, (int, float)):
        return np.full(pts.shape[:-1], float(g))
    fn = getattr(g, "value", g)
    return np.asarray(fn(pts), dtype=float)


def interior_integral(body, u, g=1.0, Q=DEFAULT_Q):
    """Integral of g over K against mu = e^{-u} dx."""
    pts, weights = interior_nodes(body, Q)
    vals = _field_on_points(g, pts)
    return float(np.sum(weights * vals * u.weight(pts)))
