"""Planar smooth strictly convex bodies represented by support functions.

A body K is stored as M uniform samples of its support function h(theta),
where theta is the outer normal angle.  All derived quantities come from the
trigonometric interpolant:

    boundary point   x(theta) = h*nu + h'*tau,   nu = (cos, sin), tau = (-sin, cos)
    curvature radius r(theta) = h + h''          (> 0 iff strictly convex)
    arclength        ds = r(theta) dtheta

A body is a ``spectral.BoundaryField``, so it passes wherever a boundary
field is taken (the flow direction f = h, L applied to h).  Bodies are
immutable after construction and every operation is pure.  The angle grid and
the frame (nu, tau) on it depend on M alone, so all bodies on one grid share
them as read-only arrays.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import spectral
from .errors import (ConvexLabError, InvalidInput, NotStrictlyConvex, OriginOutside,
                     PerturbationTooLarge, _check_descriptor)
from .spectral import BoundaryField

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
]

DEFAULT_M = 256

# r(theta) must clear this fraction of its maximum: II^{-1} enters every
# bilinear form, so near-singular curvature would poison conditioning.
CONVEXITY_RTOL = 1e-8

EVENNESS_TOL = 1e-12
HULL_SMOOTHING = 0.15  # hull_body's first damping width, widened 1.5x until convex


@lru_cache(maxsize=16)
def _frame(M):
    """The angles theta_j, normals nu and tangents tau of the M-point grid, read-only.

    They depend on M alone, so every body on the grid shares them.
    """
    t = spectral.grid(M)
    nu = np.stack([np.cos(t), np.sin(t)], axis=1)
    tau = np.stack([-np.sin(t), np.cos(t)], axis=1)
    for a in (t, nu, tau):
        a.flags.writeable = False
    return t, nu, tau


class SupportFunction2D(BoundaryField):
    """Support function h of a planar body: a BoundaryField with read-only values."""

    _GRID_ERROR = "support function needs an even grid of >= 64 samples"
    _FINITE_ERROR = "support function samples must be finite"
    _MIN_M, _M_STEP = 64, 2

    def __init__(self, values, descriptor=None, validate=True):
        super().__init__(values)
        self.values.flags.writeable = False
        self.descriptor = descriptor if descriptor is not None else {"kind": "custom"}
        if validate:
            r = self.radius_grid
            floor = CONVEXITY_RTOL * r.max()
            j = int(np.argmin(r))
            if r[j] < floor:
                raise NotStrictlyConvex(self.theta_grid[j], r[j])

    # -- grid quantities ------------------------------------------------------

    @property
    def theta_grid(self):
        return _frame(self.M)[0]

    @cached_property
    def radius_grid(self):
        """Radius of curvature r = h + h'' at the grid nodes."""
        return self.values + self.deriv(2)

    @property
    def normals_grid(self):
        return _frame(self.M)[1]

    @property
    def tangents_grid(self):
        return _frame(self.M)[2]

    @cached_property
    def boundary_grid(self):
        """Boundary points x(theta_j), shape (M, 2)."""
        return self.values[:, None] * self.normals_grid + self.deriv(1)[:, None] * self.tangents_grid

    @cached_property
    def is_even(self):
        half = np.roll(self.values, self.M // 2)
        tol = EVENNESS_TOL * max(1.0, float(np.abs(self.values).max()))
        return bool(np.abs(self.values - half).max() <= tol)

    def require_interior_origin(self):
        if self.values.min() <= 0.0:
            raise OriginOutside(
                f"min h = {self.values.min():.6g} <= 0; center the body first"
            )


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
        raise InvalidInput("disk radius must be positive")
    vals = np.full(M, float(radius))
    return SupportFunction2D(vals, descriptor={"kind": "disk", "radius": float(radius)})


def ellipse(a, b, M=DEFAULT_M):
    """Ellipse x^2/a^2 + y^2/b^2 <= 1; h = sqrt(a^2 cos^2 + b^2 sin^2)."""
    if a <= 0 or b <= 0:
        raise InvalidInput("ellipse semi-axes must be positive")
    t = spectral.grid(M)
    vals = np.sqrt((a * np.cos(t)) ** 2 + (b * np.sin(t)) ** 2)
    return SupportFunction2D(vals, descriptor={"kind": "ellipse", "a": float(a), "b": float(b)})


def fourier_body(c0, cos=None, sin=None, M=DEFAULT_M):
    """Body with h = c0 + sum_k a_k cos(k t) + b_k sin(k t), centred.

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
    return center(SupportFunction2D(vals, descriptor=desc))


def hull_body(points, M=DEFAULT_M):
    """Smoothed support function of the convex hull of a point cloud, centred.

    The raw hull support h(theta) = max_i <p_i, nu(theta)> is piecewise
    smooth; its Fourier modes are damped by exp(-(smoothing*k)^2/2), widening
    smoothing from HULL_SMOOTHING, until the result is strictly convex.  Raises
    NotStrictlyConvex if none is admissible before the shape degenerates.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        raise InvalidInput("hull_body needs at least 3 points")
    raw = (_frame(M)[1] @ pts.T).max(axis=1)
    c = spectral.coefficients(raw)
    k = np.arange(len(c))
    sigma = HULL_SMOOTHING
    for _ in range(12):
        vals = np.fft.irfft(c * np.exp(-0.5 * (sigma * k) ** 2), n=M)
        try:
            return center(SupportFunction2D(
                vals, descriptor={"kind": "hull", "n_points": len(pts), "smoothing": sigma}))
        except NotStrictlyConvex:
            sigma *= 1.5
    raise NotStrictlyConvex(0.0, float((vals + spectral.grid_derivative(vals, 2)).min()),
                            "hull smoothing failed to produce a strictly convex body")


def make_body(descriptor, M=DEFAULT_M):
    """Build a body from a descriptor dict (CLI entry point).

    Kinds: ``disk`` (radius), ``ellipse`` (a, b), ``fourier`` (c0, cos, sin).
    Lengths default to 1 and harmonics to none.  An unknown kind, a key the
    kind does not read, or a length <= 0 raises InvalidInput.
    """
    desc = dict(descriptor)
    kind = desc.pop("kind", None)
    _check_descriptor("body", kind, desc, {"disk": ("radius",), "ellipse": ("a", "b"),
                                           "fourier": ("c0", "cos", "sin")})
    if kind == "disk":
        return disk(desc.get("radius", 1.0), M=M)
    if kind == "ellipse":
        return ellipse(desc.get("a", 1.0), desc.get("b", 1.0), M=M)
    return fourier_body(desc.get("c0", 1.0), desc.get("cos"), desc.get("sin"), M=M)


# -- operations ---------------------------------------------------------------


def boundary_point(body, theta):
    """Boundary point, frame, and curvature radius at normal angle theta."""
    theta = float(theta) % (2.0 * np.pi)
    h0, h1, h2 = (float(v) for v in body.eval(theta, (0, 1, 2)))
    nu = np.array([np.cos(theta), np.sin(theta)])
    tau = np.array([-np.sin(theta), np.cos(theta)])
    return BoundaryPoint(theta=theta, x=h0 * nu + h1 * tau, nu=nu, tau=tau, r=h0 + h2)


def wulff_perturb(body, f, t):
    """Support function of the Wulff shape [h + t*f] in the admissible regime.

    For |t| small enough that h + t*f + (h + t*f)'' > 0, the Wulff shape's
    support function is exactly h + t*f; outside that window the construction
    raises PerturbationTooLarge rather than forming a lower envelope.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ConvexLabError(f"the Wulff shape needs a finite t, got t = {t}")
    fv = np.asarray(getattr(f, "values", f), dtype=float)
    if fv.shape != body.values.shape:
        raise ValueError("perturbation grid does not match the body grid")
    vals = body.values + t * fv
    try:
        return SupportFunction2D(vals, descriptor={"kind": "wulff", "base": body.descriptor, "t": t})
    except NotStrictlyConvex as exc:
        raise PerturbationTooLarge(
            f"t = {t:.6g} exceeds the admissible Wulff window: {exc}"
        ) from exc


def minkowski_combine(bodyK, bodyL, t):
    """Support function of (1-t)K + tL; support functions add under Minkowski sum."""
    if bodyK.M != bodyL.M:
        raise ValueError("bodies live on different grids")
    if not 0.0 <= t <= 1.0:
        raise InvalidInput("t must lie in [0, 1]")
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


def gauge_angle(body, x, newton_steps=20, tol=1e-12):
    """Gauge ||x||_K with the maximizing normal angle, for points of shape (..., 2).

    Dual formula over supporting halfspaces: ||x||_K = sup_theta g(theta),
    g = <x, nu>/h.  Coarse grid argmax refined by a clamped Newton iteration
    on the angle, run on all points at once; each point stops on its own
    g'' >= 0 or |step| < tol test.  One point (2,) gives (float, float), a
    stack gives two arrays of the leading shape; the origin gives (0, 0).
    Each point's result is bit-identical to its one-point call: the coarse
    grid is one matrix-vector product per point (one matrix product for the
    stack rounds some entries differently), and the powers of h go through
    libm's pow as the scalar ``**`` does (np.power's SIMD loop does not).
    """
    if not (isinstance(newton_steps, (int, np.integer)) and newton_steps >= 0):
        raise InvalidInput(f"newton_steps must be an integer >= 0, got {newton_steps!r}")
    body.require_interior_origin()
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (2,):
        raise ValueError("gauge needs points of shape (..., 2)")
    if not np.all(np.isfinite(x)):
        raise InvalidInput("gauge of a non-finite point")
    X = x.reshape(-1, 2)
    g_grid = np.matmul(body.normals_grid[None], X[:, :, None])[..., 0] / body.values
    j = np.argmax(g_grid, axis=1)
    theta = body.theta_grid[j]
    best_g, best_t = g_grid[np.arange(len(X)), j], theta.copy()
    active = np.hypot(X[:, 0], X[:, 1]) != 0.0
    best_g[~active] = best_t[~active] = 0.0
    last = np.zeros(len(X), dtype=bool)  # stepped below tol: one more evaluation
    step_cap = 2.0 * (2.0 * np.pi / body.M)
    for it in range(newton_steps + 1):
        if it == newton_steps:
            active &= last
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        th, x0, x1 = theta[idx], X[idx, 0], X[idx, 1]
        c, s = np.cos(th), np.sin(th)
        num = x0 * c + x1 * s
        num1 = -x0 * s + x1 * c
        h0, h1, h2 = body.eval(th, (0, 1, 2))
        h0_2, h0_3 = np.float_power(h0, 2), np.float_power(h0, 3)
        g = num / h0
        g1 = num1 / h0 - num * h1 / h0_2
        g2 = (-num / h0 - 2.0 * num1 * h1 / h0_2
              - num * h2 / h0_2 + 2.0 * num * np.float_power(h1, 2) / h0_3)
        up = g > best_g[idx]
        best_g[idx[up]] = g[up]
        best_t[idx[up]] = th[up]
        stop = last[idx] | (g2 >= 0.0)
        active[idx[stop]] = False
        go = idx[~stop]
        step = np.clip(-g1[~stop] / g2[~stop], -step_cap, step_cap)
        theta[go] = th[~stop] + step
        last[go] = np.abs(step) < tol
    best_t %= 2.0 * np.pi
    if x.ndim == 1:
        return float(best_g[0]), float(best_t[0])
    return best_g.reshape(x.shape[:-1]), best_t.reshape(x.shape[:-1])


def gauge(body, x):
    """Gauge function ||x||_K = inf{tau >= 0 : x in tau*K}.

    Takes points of shape (..., 2) like ``gauge_angle``: a float for one
    point, an array of the leading shape for a stack.
    """
    return gauge_angle(body, x)[0]
