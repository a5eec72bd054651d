"""Planar smooth strictly convex bodies represented by support functions.

A body K is stored as M uniform samples of its support function h(theta),
where theta is the outer normal angle.  All derived quantities come from the
trigonometric interpolant:

    boundary point   x(theta) = h*nu + h'*tau,   nu = (cos, sin), tau = (-sin, cos)
    curvature radius r(theta) = h + h''          (> 0 iff strictly convex)
    arclength        ds = r(theta) dtheta

Bodies are immutable after construction and every operation is pure.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectral
from .errors import NotStrictlyConvex, OriginOutside, PerturbationTooLarge

__all__ = [
    "SupportFunction2D",
    "BoundaryPoint",
    "disk",
    "ellipse",
    "fourier_body",
    "hull_body",
    "make_body",
    "boundary_point",
    "wulff_perturb",
    "minkowski_combine",
    "steiner_point",
    "center",
    "gauge",
    "gauge_angle",
    "perimeter",
    "area",
]

DEFAULT_M = 256

# r(theta) must clear this fraction of its maximum: II^{-1} enters every
# bilinear form, so near-singular curvature would poison conditioning.
CONVEXITY_RTOL = 1e-8

EVENNESS_TOL = 1e-12


class SupportFunction2D:
    """Support function h of a planar body on the uniform angle grid."""

    def __init__(self, values, descriptor=None, validate=True):
        values = np.asarray(values, dtype=float).copy()
        if values.ndim != 1 or values.size < 64 or values.size % 2:
            raise ValueError("support function needs an even grid of >= 64 samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("support function samples must be finite")
        values.flags.writeable = False
        self.values = values
        self.M = values.size
        self.descriptor = descriptor if descriptor is not None else {"kind": "custom"}
        if validate:
            self._check_convexity()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_function(cls, fn, M=DEFAULT_M, descriptor=None):
        return cls(fn(spectral.grid(M)), descriptor=descriptor)

    def _check_convexity(self):
        r = self.radius_grid
        floor = CONVEXITY_RTOL * r.max()
        j = int(np.argmin(r))
        if r[j] < floor:
            raise NotStrictlyConvex(self.theta_grid[j], r[j])

    # -- grid quantities ------------------------------------------------------

    @cached_property
    def theta_grid(self):
        return spectral.grid(self.M)

    @cached_property
    def _coeffs(self):
        return spectral.coefficients(self.values)

    @cached_property
    def d1_grid(self):
        return spectral.grid_derivative(self.values, 1)

    @cached_property
    def d2_grid(self):
        return spectral.grid_derivative(self.values, 2)

    @cached_property
    def radius_grid(self):
        """Radius of curvature r = h + h'' at the grid nodes."""
        return self.values + self.d2_grid

    @cached_property
    def normals_grid(self):
        t = self.theta_grid
        return np.stack([np.cos(t), np.sin(t)], axis=1)

    @cached_property
    def tangents_grid(self):
        t = self.theta_grid
        return np.stack([-np.sin(t), np.cos(t)], axis=1)

    @cached_property
    def boundary_grid(self):
        """Boundary points x(theta_j), shape (M, 2)."""
        return self.values[:, None] * self.normals_grid + self.d1_grid[:, None] * self.tangents_grid

    @property
    def m1(self):
        """Minimal curvature min 1/r over the grid."""
        return float((1.0 / self.radius_grid).min())

    @property
    def m2(self):
        """Maximal curvature max 1/r over the grid."""
        return float((1.0 / self.radius_grid).max())

    @cached_property
    def is_even(self):
        half = np.roll(self.values, self.M // 2)
        tol = EVENNESS_TOL * max(1.0, float(np.abs(self.values).max()))
        return bool(np.abs(self.values - half).max() <= tol)

    # -- pointwise evaluation -------------------------------------------------

    def h(self, theta, order=0):
        """Evaluate h (or an angular derivative) at arbitrary angles."""
        return spectral.evaluate(self._coeffs, self.M, theta, order)

    def radius(self, theta):
        return self.h(theta) + self.h(theta, 2)

    def require_interior_origin(self):
        if self.values.min() <= 0.0:
            raise OriginOutside(
                f"min h = {self.values.min():.6g} <= 0; center the body first"
            )

    def __repr__(self):
        return f"SupportFunction2D({self.descriptor!r}, M={self.M})"


@dataclass(frozen=True)
class BoundaryPoint:
    """One boundary point with its frame and curvature radius."""

    theta: float
    x: np.ndarray
    nu: np.ndarray
    tau: np.ndarray
    r: float


# -- constructors -------------------------------------------------------------


def disk(radius=1.0, M=DEFAULT_M):
    if radius <= 0:
        raise ValueError("disk radius must be positive")
    vals = np.full(M, float(radius))
    return SupportFunction2D(vals, descriptor={"kind": "disk", "radius": float(radius)})


def ellipse(a, b, M=DEFAULT_M):
    """Ellipse x^2/a^2 + y^2/b^2 <= 1; h = sqrt(a^2 cos^2 + b^2 sin^2)."""
    if a <= 0 or b <= 0:
        raise ValueError("ellipse semi-axes must be positive")
    t = spectral.grid(M)
    vals = np.sqrt((a * np.cos(t)) ** 2 + (b * np.sin(t)) ** 2)
    return SupportFunction2D(vals, descriptor={"kind": "ellipse", "a": float(a), "b": float(b)})


def fourier_body(c0, cos=None, sin=None, M=DEFAULT_M, recenter=True):
    """Body with h = c0 + sum_k a_k cos(k t) + b_k sin(k t).

    Rejects coefficient lists whose h + h'' dips below the convexity floor.
    """
    cos = dict(cos or {})
    sin = dict(sin or {})
    t = spectral.grid(M)
    vals = np.full(M, float(c0))
    for k, a in cos.items():
        vals += float(a) * np.cos(int(k) * t)
    for k, b in sin.items():
        vals += float(b) * np.sin(int(k) * t)
    desc = {"kind": "fourier", "c0": float(c0),
            "cos": {int(k): float(v) for k, v in cos.items()},
            "sin": {int(k): float(v) for k, v in sin.items()}}
    body = SupportFunction2D(vals, descriptor=desc)
    return center(body) if recenter else body


def hull_body(points, smoothing=0.15, M=DEFAULT_M, recenter=True):
    """Smoothed support function of the convex hull of a point cloud.

    The raw hull support h(theta) = max_i <p_i, nu(theta)> is piecewise
    smooth; its Fourier modes are damped by exp(-(smoothing*k)^2/2) until the
    result is strictly convex.  Raises NotStrictlyConvex if no admissible
    smoothing is found before the shape degenerates.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        raise ValueError("hull_body needs at least 3 points")
    t = spectral.grid(M)
    nu = np.stack([np.cos(t), np.sin(t)], axis=1)
    raw = (nu @ pts.T).max(axis=1)
    c = spectral.coefficients(raw)
    k = np.arange(len(c))
    sigma = float(smoothing)
    for _ in range(12):
        vals = np.fft.irfft(c * np.exp(-0.5 * (sigma * k) ** 2), n=M)
        try:
            body = SupportFunction2D(
                vals, descriptor={"kind": "hull", "n_points": len(pts), "smoothing": sigma}
            )
            return center(body) if recenter else body
        except NotStrictlyConvex:
            sigma *= 1.5
    raise NotStrictlyConvex(0.0, float((vals + spectral.grid_derivative(vals, 2)).min()),
                            "hull smoothing failed to produce a strictly convex body")


def make_body(descriptor, M=DEFAULT_M):
    """Build a body from a descriptor dict (CLI entry point).

    Kinds: ``disk`` (radius), ``ellipse`` (a, b), ``fourier`` (c0, cos, sin),
    ``hull`` (points, smoothing).
    """
    desc = dict(descriptor)
    kind = desc.pop("kind", None)
    M = int(desc.pop("M", M))
    if kind == "disk":
        return disk(desc.pop("radius", 1.0), M=M)
    if kind == "ellipse":
        return ellipse(desc.pop("a", 1.0), desc.pop("b", 1.0), M=M)
    if kind == "fourier":
        return fourier_body(desc.pop("c0", 1.0), desc.pop("cos", None),
                            desc.pop("sin", None), M=M)
    if kind == "hull":
        return hull_body(desc.pop("points"), desc.pop("smoothing", 0.15), M=M)
    raise ValueError(f"unknown body kind {kind!r}")


# -- operations ---------------------------------------------------------------


def boundary_point(body, theta):
    """Boundary point, frame, and curvature radius at normal angle theta."""
    theta = float(theta) % (2.0 * np.pi)
    h0 = float(body.h(theta))
    h1 = float(body.h(theta, 1))
    h2 = float(body.h(theta, 2))
    nu = np.array([np.cos(theta), np.sin(theta)])
    tau = np.array([-np.sin(theta), np.cos(theta)])
    return BoundaryPoint(theta=theta, x=h0 * nu + h1 * tau, nu=nu, tau=tau, r=h0 + h2)


def wulff_perturb(body, f, t):
    """Support function of the Wulff shape [h + t*f] in the admissible regime.

    For |t| small enough that h + t*f + (h + t*f)'' > 0, the Wulff shape's
    support function is exactly h + t*f; outside that window the construction
    raises PerturbationTooLarge rather than forming a lower envelope.
    """
    fv = np.asarray(getattr(f, "values", f), dtype=float)
    if fv.shape != body.values.shape:
        raise ValueError("perturbation grid does not match the body grid")
    vals = body.values + float(t) * fv
    try:
        return SupportFunction2D(vals, descriptor={"kind": "wulff", "base": body.descriptor, "t": float(t)})
    except NotStrictlyConvex as exc:
        raise PerturbationTooLarge(
            f"t = {t:.6g} exceeds the admissible Wulff window: {exc}"
        ) from exc


def minkowski_combine(bodyK, bodyL, t):
    """Support function of (1-t)K + tL; support functions add under Minkowski sum."""
    if bodyK.M != bodyL.M:
        raise ValueError("bodies live on different grids")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    # arranged as h_K + t*(h_L - h_K): bit-identical with the Wulff path
    vals = bodyK.values + float(t) * (bodyL.values - bodyK.values)
    return SupportFunction2D(
        vals,
        descriptor={"kind": "minkowski", "K": bodyK.descriptor, "L": bodyL.descriptor, "t": float(t)},
        validate=False,  # convex combination of support functions stays convex
    )


def steiner_point(body):
    """Steiner point s = (1/pi) * integral of h(theta) nu(theta) dtheta."""
    w = 2.0 * np.pi / body.M
    return (body.values[:, None] * body.normals_grid).sum(axis=0) * w / np.pi


def center(body):
    """Translate the body so its Steiner point sits at the origin.

    Removes the first harmonics of h; the result has positive h (the Steiner
    point of a convex body is interior) and centering is idempotent.
    """
    s = steiner_point(body)
    vals = body.values - body.normals_grid @ s
    out = SupportFunction2D(vals, descriptor=body.descriptor, validate=False)
    if out.values.min() <= 0.0:
        raise OriginOutside("Steiner-point centering left h <= 0; body is degenerate")
    return out


def _gauge_objective(body, x, theta):
    """g = <x, nu>/h and its first two angular derivatives."""
    c, s = np.cos(theta), np.sin(theta)
    num = x[0] * c + x[1] * s
    num1 = -x[0] * s + x[1] * c
    num2 = -num
    h0 = body.h(theta)
    h1 = body.h(theta, 1)
    h2 = body.h(theta, 2)
    g = num / h0
    g1 = num1 / h0 - num * h1 / h0**2
    g2 = (num2 / h0 - 2.0 * num1 * h1 / h0**2
          - num * h2 / h0**2 + 2.0 * num * h1**2 / h0**3)
    return g, g1, g2


def gauge_angle(body, x, newton_steps=20, tol=1e-12):
    """Gauge ||x||_K with the maximizing normal angle.

    Dual formula over supporting halfspaces: ||x||_K = sup_theta <x, nu>/h.
    Coarse grid argmax refined by a clamped Newton iteration on the angle.
    """
    body.require_interior_origin()
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("gauge of a non-finite point")
    if np.hypot(x[0], x[1]) == 0.0:
        return 0.0, 0.0
    g_grid = (body.normals_grid @ x) / body.values
    j = int(np.argmax(g_grid))
    theta = body.theta_grid[j]
    best_g, best_t = g_grid[j], theta
    step_cap = 2.0 * (2.0 * np.pi / body.M)
    for _ in range(newton_steps):
        g, g1, g2 = _gauge_objective(body, x, theta)
        if g > best_g:
            best_g, best_t = g, theta
        if g2 >= 0.0:
            break
        step = -g1 / g2
        step = float(np.clip(step, -step_cap, step_cap))
        theta += step
        if abs(step) < tol:
            g = _gauge_objective(body, x, theta)[0]
            if g > best_g:
                best_g, best_t = g, theta
            break
    return float(best_g), float(best_t % (2.0 * np.pi))


def gauge(body, x):
    """Gauge function ||x||_K = inf{tau >= 0 : x in tau*K}."""
    return gauge_angle(body, x)[0]


def perimeter(body):
    """Cauchy formula: integral of r dtheta (= integral of h dtheta)."""
    return float(body.radius_grid.sum() * 2.0 * np.pi / body.M)


def area(body):
    """Area via the divergence theorem: (1/2) * integral of h*r dtheta."""
    return float(0.5 * (body.values * body.radius_grid).sum() * 2.0 * np.pi / body.M)
