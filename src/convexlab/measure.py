"""Convex potentials u, the measures mu = e^{-u} dx, and Legendre machinery.

A Potential bundles vectorized callables for u, its gradient, and its Hessian.
On top of it this module provides the numerical Fenchel-Legendre conjugate
u*(y) (damped Newton), the conjugate flow u_t = (u* + t*psi)* for a C^2 dual
perturbation psi, the first and second t-derivatives of u_t, and the weighted
mean curvature H_mu = tr(II) - <grad u, nu> of a body's boundary.

All evaluation is pure; points may be passed with any leading shape (..., 2).
"""

import numpy as np

from .errors import (
    FlowNotConvex,
    LebesgueModeRestriction,
    NewtonDivergence,
    NotConvexPotential,
    PinchingViolation,
)

__all__ = [
    "Potential",
    "gaussian_potential",
    "quadratic_potential",
    "even_quartic_potential",
    "zero_potential",
    "make_potential",
    "translate_potential",
    "shift_potential",
    "gradient_consistency",
    "verify_pinching",
    "conjugate",
    "conjugate_potential",
    "Perturbation",
    "QuadraticPerturbation",
    "ConjugatePerturbation",
    "conjugate_flow",
    "flow_potential",
    "flow_derivatives",
    "weighted_mean_curvature",
]

NEWTON_CAP = 100
NEWTON_TOL = 1e-12
ARMIJO = 1e-4


def _flatten(points):
    pts = np.asarray(points, dtype=float)
    lead = pts.shape[:-1]
    return pts.reshape(-1, 2), lead


def _spd_2x2(H):
    """Elementwise SPD test for an (m, 2, 2) stack."""
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
    return (H[:, 0, 0] > 0) & (det > 0)


def _solve_2x2(H, rhs):
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
    out = np.empty_like(rhs)
    out[:, 0] = (H[:, 1, 1] * rhs[:, 0] - H[:, 0, 1] * rhs[:, 1]) / det
    out[:, 1] = (H[:, 0, 0] * rhs[:, 1] - H[:, 1, 0] * rhs[:, 0]) / det
    return out


def _inv_2x2(H):
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
    out = np.empty_like(H)
    out[:, 0, 0] = H[:, 1, 1] / det
    out[:, 1, 1] = H[:, 0, 0] / det
    out[:, 0, 1] = -H[:, 0, 1] / det
    out[:, 1, 0] = -H[:, 1, 0] / det
    return out


class Potential:
    """Smooth convex potential with vectorized value/gradient/Hessian."""

    def __init__(self, kind, value, grad, hess, is_even=False, pinching=None,
                 params=None, descriptor=None):
        self.kind = kind
        self._value = value
        self._grad = grad
        self._hess = hess
        self.is_even = bool(is_even)
        self.pinching = None if pinching is None else (float(pinching[0]), float(pinching[1]))
        if self.pinching is not None and not 0 < self.pinching[0] <= self.pinching[1]:
            raise ValueError("pinching constants must satisfy 0 < k1 <= k2")
        self.params = params or {}
        self.descriptor = descriptor or {"kind": kind}

    @property
    def is_zero(self):
        return self.kind == "zero"

    def value(self, points):
        flat, lead = _flatten(points)
        return self._value(flat).reshape(lead)

    def grad(self, points):
        flat, lead = _flatten(points)
        return self._grad(flat).reshape(lead + (2,))

    def hess(self, points):
        flat, lead = _flatten(points)
        return self._hess(flat).reshape(lead + (2, 2))

    def weight(self, points):
        """Density e^{-u} of mu at the given points."""
        return np.exp(-self.value(points))

    def require_strictly_convex(self, what="this operation"):
        if self.is_zero:
            raise LebesgueModeRestriction(
                f"{what} requires a strictly convex potential; u == 0 is only "
                "admitted for the boundary forms P and I and the operator L"
            )

    def __repr__(self):
        return f"Potential({self.descriptor!r})"


# -- built-in potentials --------------------------------------------------------


def gaussian_potential():
    """u = |x|^2 / 2; self-dual, pinching k1 = k2 = 1."""
    def value(p):
        return 0.5 * np.einsum("ij,ij->i", p, p)

    def grad(p):
        return p.copy()

    def hess(p):
        out = np.zeros((len(p), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0
        return out

    return Potential("gaussian", value, grad, hess, is_even=True, pinching=(1.0, 1.0),
                     params={"A": np.eye(2)}, descriptor={"kind": "gaussian"})


def quadratic_potential(A):
    """u = <Ax, x> / 2 for symmetric positive definite A."""
    A = np.asarray(A, dtype=float).reshape(2, 2)
    if not np.allclose(A, A.T, atol=1e-12):
        raise NotConvexPotential("quadratic potential needs a symmetric matrix")
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0:
        raise NotConvexPotential(f"matrix eigenvalues {eigs} are not all positive")

    def value(p):
        return 0.5 * np.einsum("ij,jk,ik->i", p, A, p)

    def grad(p):
        return p @ A.T

    def hess(p):
        return np.broadcast_to(A, (len(p), 2, 2)).copy()

    return Potential("quadratic", value, grad, hess, is_even=True,
                     pinching=(eigs[0], eigs[1]), params={"A": A},
                     descriptor={"kind": "quadratic", "A": A.tolist()})


def even_quartic_potential(eps, pinching=None):
    """u = |x|^2/2 + eps*|x|^4 for eps >= 0.

    No global upper Hessian bound exists for eps > 0, so pinching stays
    undeclared unless supplied explicitly (it is then checked on quadrature
    nodes, not globally).
    """
    eps = float(eps)
    if not 0 <= eps < np.inf:
        raise NotConvexPotential("even-quartic needs a finite eps >= 0")

    def value(p):
        n2 = np.einsum("ij,ij->i", p, p)
        return 0.5 * n2 + eps * n2**2

    def grad(p):
        n2 = np.einsum("ij,ij->i", p, p)
        return p * (1.0 + 4.0 * eps * n2)[:, None]

    def hess(p):
        n2 = np.einsum("ij,ij->i", p, p)
        out = np.einsum("ij,ik->ijk", p, p) * (8.0 * eps)
        diag = 1.0 + 4.0 * eps * n2
        out[:, 0, 0] += diag
        out[:, 1, 1] += diag
        return out

    return Potential("even-quartic", value, grad, hess, is_even=True,
                     pinching=pinching, params={"eps": eps},
                     descriptor={"kind": "even-quartic", "eps": eps})


def zero_potential():
    """u == 0: Lebesgue mode, admitted only where (del^2 u)^{-1} never appears."""
    def value(p):
        return np.zeros(len(p))

    def grad(p):
        return np.zeros((len(p), 2))

    def hess(p):
        return np.zeros((len(p), 2, 2))

    return Potential("zero", value, grad, hess, is_even=True,
                     descriptor={"kind": "zero"})


def make_potential(descriptor):
    """Build a potential from a descriptor dict (CLI entry point)."""
    desc = dict(descriptor)
    kind = desc.pop("kind", None)
    pinching = desc.pop("pinching", None)
    if kind == "gaussian":
        return gaussian_potential()
    if kind == "quadratic":
        return quadratic_potential(desc.pop("A"))
    if kind == "even-quartic":
        return even_quartic_potential(desc.pop("eps", 0.0), pinching=pinching)
    if kind == "zero":
        return zero_potential()
    raise ValueError(f"unknown potential kind {kind!r}")


def translate_potential(u, v):
    """Potential x -> u(x - v); pinching survives, evenness generally not."""
    v = np.asarray(v, dtype=float).reshape(2)

    def value(p):
        return u._value(p - v)

    def grad(p):
        return u._grad(p - v)

    def hess(p):
        return u._hess(p - v)

    even = u.is_even and np.all(v == 0.0)
    return Potential("zero" if u.is_zero else "translated", value, grad, hess, is_even=even,
                     pinching=u.pinching, params={"base": u, "v": v},
                     descriptor={"kind": "translated", "base": u.descriptor, "v": v.tolist()})


def shift_potential(u, const):
    """Potential u + const; rescales the density of mu by e^{-const}.

    The kind is preserved so that a shifted zero potential keeps its
    Lebesgue-mode restrictions (its Hessian is still singular).
    """
    const = float(const)

    def value(p):
        return u._value(p) + const

    return Potential(u.kind, value, u._grad, u._hess, is_even=u.is_even,
                     pinching=u.pinching, params=dict(u.params, shift=const),
                     descriptor={"kind": "shifted", "base": u.descriptor, "const": const})


# -- validation helpers ----------------------------------------------------------


def gradient_consistency(u, points, step=1e-6):
    """Max relative mismatch of grad/hess against central differences of u.

    Guards custom potentials: both returned numbers should sit below ~1e-6
    relative for a correctly wired C^2 potential.
    """
    pts, _ = _flatten(points)
    g = u._grad(pts)
    H = u._hess(pts)
    scale_g = np.abs(g).max() + 1.0
    scale_h = np.abs(H).max() + 1.0
    worst_g = 0.0
    worst_h = 0.0
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = step
        vp, vm = u._value(pts + e), u._value(pts - e)
        worst_g = max(worst_g, np.abs((vp - vm) / (2 * step) - g[:, axis]).max() / scale_g)
        gp, gm = u._grad(pts + e), u._grad(pts - e)
        worst_h = max(worst_h, np.abs((gp - gm) / (2 * step) - H[:, :, axis]).max() / scale_h)
    return worst_g, worst_h


def verify_pinching(u, points, tol=1e-9):
    """Check k1*Id <= del^2 u and tr(del^2 u) <= 2*k2 at the given nodes."""
    if u.pinching is None:
        return
    k1, k2 = u.pinching
    pts, _ = _flatten(points)
    H = u._hess(pts)
    tr = H[:, 0, 0] + H[:, 1, 1]
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
    lam_min = 0.5 * (tr - np.sqrt(np.maximum(tr**2 - 4 * det, 0.0)))
    if lam_min.min() < k1 - tol:
        raise PinchingViolation(
            f"min Hessian eigenvalue {lam_min.min():.6g} < declared k1 = {k1:.6g}")
    if tr.max() > 2.0 * k2 + tol:
        raise PinchingViolation(
            f"max Laplacian {tr.max():.6g} > declared 2*k2 = {2 * k2:.6g}")


# -- Fenchel-Legendre conjugate ---------------------------------------------------


def _conjugate_newton(u, y):
    """Solve grad u(z) = y for each row of y; returns (u*(y), z)."""
    z = y.copy()
    m = len(y)
    active = np.ones(m, dtype=bool)
    tol = NEWTON_TOL * (1.0 + np.hypot(y[:, 0], y[:, 1]))
    for _ in range(NEWTON_CAP):
        idx = np.flatnonzero(active)
        zi, yi = z[idx], y[idx]
        g = u._grad(zi) - yi
        err = np.hypot(g[:, 0], g[:, 1])
        done = err <= tol[idx]
        active[idx[done]] = False
        if done.all():
            break
        keep = ~done
        idx, zi, yi, g = idx[keep], zi[keep], yi[keep], g[keep]
        H = u._hess(zi)
        if not _spd_2x2(H).all():
            raise NotConvexPotential("Hessian lost positive definiteness during conjugation")
        d = -_solve_2x2(H, g)
        # Armijo backtracking on q(z) = u(z) - <y, z>; the floor term keeps
        # rounding noise in q from rejecting converged full steps
        q0 = u._value(zi) - np.einsum("ij,ij->i", yi, zi)
        gd = np.einsum("ij,ij->i", g, d)
        floor = 1e-14 * (np.abs(q0) + 1.0)
        step = np.ones(len(idx))
        pending = np.ones(len(idx), dtype=bool)
        for _ in range(60):
            zt = zi + step[:, None] * d
            qt = u._value(zt) - np.einsum("ij,ij->i", yi, zt)
            ok = qt <= q0 + ARMIJO * step * gd + floor
            pending &= ~ok
            if not pending.any():
                break
            step[pending] *= 0.5
        z[idx] = zi + step[:, None] * d
    if active.any():
        raise NewtonDivergence(
            f"conjugate Newton failed to converge for {int(active.sum())} point(s)")
    val = np.einsum("ij,ij->i", y, z) - u._value(z)
    return val, z


def conjugate(u, y):
    """Fenchel-Legendre transform: (u*(y), grad u*(y)).

    grad u*(y) is the point z with grad u(z) = y, and
    u*(y) = <y, z> - u(z).
    """
    u.require_strictly_convex("the Legendre conjugate")
    flat, lead = _flatten(y)
    val, z = _conjugate_newton(u, flat)
    return val.reshape(lead), z.reshape(lead + (2,))


def conjugate_potential(u):
    """u* wrapped as a Potential (hess u* = (hess u)^{-1} at the solve point).

    Conjugating it again recovers u: the numerical involution check.
    """
    u.require_strictly_convex("the Legendre conjugate")

    def value(p):
        return _conjugate_newton(u, p)[0]

    def grad(p):
        return _conjugate_newton(u, p)[1]

    def hess(p):
        _, z = _conjugate_newton(u, p)
        return _inv_2x2(u._hess(z))

    return Potential("conjugate", value, grad, hess, is_even=u.is_even,
                     params={"base": u},
                     descriptor={"kind": "conjugate", "base": u.descriptor})


# -- dual perturbations psi -------------------------------------------------------


class Perturbation:
    """C^2 dual-side perturbation psi with analytic gradient and Hessian."""

    kind = "abstract"
    is_even = False
    descriptor = {"kind": "abstract"}

    def value(self, y):
        raise NotImplementedError

    def grad(self, y):
        raise NotImplementedError

    def hess(self, y):
        raise NotImplementedError


class QuadraticPerturbation(Perturbation):
    """psi(y) = <By, y>/2 + <b, y> + c (B symmetric, possibly indefinite)."""

    kind = "quadratic"

    def __init__(self, B=None, b=None, c=0.0):
        self.B = np.zeros((2, 2)) if B is None else np.asarray(B, dtype=float).reshape(2, 2)
        if not np.allclose(self.B, self.B.T, atol=1e-12):
            raise ValueError("quadratic perturbation needs a symmetric matrix")
        self.b = np.zeros(2) if b is None else np.asarray(b, dtype=float).reshape(2)
        self.c = float(c)
        self.is_even = bool(np.all(self.b == 0.0) and self.c == 0.0)
        self.descriptor = {"kind": "quadratic", "B": self.B.tolist(),
                           "b": self.b.tolist(), "c": self.c}

    def value(self, y):
        flat, lead = _flatten(y)
        out = 0.5 * np.einsum("ij,jk,ik->i", flat, self.B, flat) + flat @ self.b + self.c
        return out.reshape(lead)

    def grad(self, y):
        flat, lead = _flatten(y)
        return (flat @ self.B.T + self.b).reshape(lead + (2,))

    def hess(self, y):
        flat, lead = _flatten(y)
        return np.broadcast_to(self.B, (len(flat), 2, 2)).reshape(lead + (2, 2)).copy()


class ConjugatePerturbation(Perturbation):
    """psi = alpha * u*; the homothety direction of the conjugate flow."""

    kind = "conjugate"

    def __init__(self, u, alpha):
        u.require_strictly_convex("psi = alpha * u*")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.base = u
        self.alpha = float(alpha)
        self.is_even = u.is_even
        self.descriptor = {"kind": "conjugate", "alpha": self.alpha,
                           "base": u.descriptor}

    def value(self, y):
        val, _ = conjugate(self.base, y)
        return self.alpha * val

    def grad(self, y):
        _, z = conjugate(self.base, y)
        return self.alpha * z

    def hess(self, y):
        flat, lead = _flatten(y)
        _, z = _conjugate_newton(self.base, flat)
        return (self.alpha * _inv_2x2(self.base._hess(z))).reshape(lead + (2, 2))


# -- conjugate flow u_t = (u* + t psi)* -------------------------------------------


def _flow_closed_form(u, psi, t):
    """Closed-form (value, grad, hess) callables where the algebra allows.

    Returns None when no fast path applies.  Raises FlowNotConvex when the
    requested t leaves the admissible window of the fast path.
    """
    if isinstance(psi, ConjugatePerturbation) and psi.base is u:
        s = 1.0 + t * psi.alpha
        if s <= 0:
            raise FlowNotConvex(f"1 + t*alpha = {s:.6g} <= 0")

        def value(p):
            return s * u._value(p / s)

        def grad(p):
            return u._grad(p / s)

        def hess(p):
            return u._hess(p / s) / s

        return value, grad, hess
    if u.kind in ("gaussian", "quadratic") and isinstance(psi, QuadraticPerturbation):
        A = u.params["A"]
        Mt = np.linalg.inv(A) + t * psi.B
        eigs = np.linalg.eigvalsh(Mt)
        if eigs[0] <= 0:
            raise FlowNotConvex(
                f"A^{{-1}} + t*B has eigenvalues {eigs}; dual lost convexity")
        Minv = np.linalg.inv(Mt)
        tb = t * psi.b
        # u = <Ax, x>/2 + u(0), possibly shifted, and (u + s)* = u* - s
        const = u._value(np.zeros((1, 2)))[0] - t * psi.c

        def value(p):
            q = p - tb
            return 0.5 * np.einsum("ij,jk,ik->i", q, Minv, q) + const

        def grad(p):
            return (p - tb) @ Minv.T

        def hess(p):
            return np.broadcast_to(Minv, (len(p), 2, 2)).copy()

        return value, grad, hess
    return None


def _flow_newton(u, psi, t, x):
    """Evaluate the flow by solving z + t*grad psi(grad u(z)) = x.

    This is the stationarity condition of sup_y <x,y> - u*(y) - t*psi(y)
    after the substitution y = grad u(z); the maximizer is y = grad u(z).
    """
    z = x.copy()
    m = len(x)
    active = np.ones(m, dtype=bool)
    scale = 1.0 + np.abs(x).max()
    for _ in range(NEWTON_CAP):
        idx = np.flatnonzero(active)
        zi, xi = z[idx], x[idx]
        y = u._grad(zi)
        R = zi + t * psi.grad(y) - xi
        err = np.hypot(R[:, 0], R[:, 1])
        done = err <= NEWTON_TOL * scale
        active[idx[done]] = False
        if done.all():
            break
        keep = ~done
        idx, zi, xi, R = idx[keep], zi[keep], xi[keep], R[keep]
        y = y[keep]
        J = t * np.einsum("ijk,ikl->ijl", psi.hess(y), u._hess(zi))
        J[:, 0, 0] += 1.0
        J[:, 1, 1] += 1.0
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        if np.any(np.abs(det) < 1e-14):
            raise FlowNotConvex("flow Jacobian became singular; t is past the window")
        d = -_solve_2x2(J, R)
        # backtracking on the residual merit 0.5*|R|^2, with a rounding floor
        phi0 = 0.5 * err[keep] ** 2
        floor = 0.5 * (1e-14 * scale) ** 2
        step = np.ones(len(idx))
        pending = np.ones(len(idx), dtype=bool)
        for _ in range(60):
            zt = zi + step[:, None] * d
            Rt = zt + t * psi.grad(u._grad(zt)) - xi
            phit = 0.5 * np.einsum("ij,ij->i", Rt, Rt)
            ok = phit <= (1.0 - 2.0 * ARMIJO * step) * phi0 + floor
            pending &= ~ok
            if not pending.any():
                break
            step[pending] *= 0.5
        z[idx] = zi + step[:, None] * d
    if active.any():
        raise NewtonDivergence(
            f"flow Newton failed to converge for {int(active.sum())} point(s)")
    y = u._grad(z)
    Hdual = _inv_2x2(u._hess(z)) + t * psi.hess(y)  # Hessian of u* + t*psi at y
    if not _spd_2x2(Hdual).all():
        raise FlowNotConvex("u* + t*psi is not strictly convex at the maximizer")
    val = np.einsum("ij,ij->i", x - z, y) + u._value(z) - t * psi.value(y)
    return val, y, _inv_2x2(Hdual)


def conjugate_flow(u, psi, t, x, method="auto"):
    """u_t(x), grad u_t(x), and hess u_t(x) for u_t = (u* + t*psi)*.

    ``method`` is "auto" (closed form when available, Newton otherwise),
    "newton", or "closed" (raises if no closed form applies).
    """
    u.require_strictly_convex("the conjugate flow")
    t = float(t)
    flat, lead = _flatten(x)
    closed = None if method == "newton" else _flow_closed_form(u, psi, t)
    if closed is not None:
        value, grad, hess = closed
        val, g, H = value(flat), grad(flat), hess(flat)
    elif method == "closed":
        raise ValueError("no closed-form path for this (u, psi) pair")
    else:
        val, g, H = _flow_newton(u, psi, t, flat)
    return val.reshape(lead), g.reshape(lead + (2,)), H.reshape(lead + (2, 2))


def flow_potential(u, psi, t):
    """The flowed potential u_t = (u* + t*psi)* wrapped as a Potential."""
    u.require_strictly_convex("the conjugate flow")
    t = float(t)
    closed = _flow_closed_form(u, psi, t)
    if closed is not None:
        value, grad, hess = closed
    else:
        def value(p):
            return _flow_newton(u, psi, t, p)[0]

        def grad(p):
            return _flow_newton(u, psi, t, p)[1]

        def hess(p):
            return _flow_newton(u, psi, t, p)[2]

    even = u.is_even and psi.is_even
    return Potential("flow", value, grad, hess, is_even=even,
                     params={"base": u, "psi": psi, "t": t},
                     descriptor={"kind": "flow", "base": u.descriptor,
                                 "psi": psi.descriptor, "t": t})


def flow_derivatives(u, psi, t, x, method="auto"):
    """Pointwise t-derivatives of the flow:

        u_t'(x)  = -psi(grad u_t(x))
        u_t''(x) = +<hess u_t(x) grad psi(grad u_t(x)), grad psi(grad u_t(x))>

    The second derivative is nonnegative by structure: u_t(x) is a supremum
    of affine functions of t, hence convex in t.  (Differentiating the
    stationarity condition grad u*(y) + t grad psi(y) = x gives
    dy/dt = -hess u_t(x) grad psi(y) and u_t'' = -<grad psi, dy/dt>.)
    """
    _, g, H = conjugate_flow(u, psi, t, x, method=method)
    flatg, lead = _flatten(g)
    first = -psi.value(flatg)
    gp = psi.grad(flatg)
    Hf = H.reshape(-1, 2, 2)
    second = np.einsum("ijk,ik,ij->i", Hf, gp, gp)
    return first.reshape(lead), second.reshape(lead)


# -- weighted mean curvature ------------------------------------------------------


def weighted_mean_curvature(body, u, theta=None):
    """H_mu = 1/r(theta) - <grad u(x(theta)), nu(theta)> (planar tr(II) = 1/r).

    With theta None, returns the grid values.
    """
    if theta is None:
        kappa = 1.0 / body.radius_grid
        return kappa - np.einsum("ij,ij->i", u.grad(body.boundary_grid), body.normals_grid)
    from .geometry import boundary_point

    bp = boundary_point(body, theta)
    return 1.0 / bp.r - float(u.grad(bp.x) @ bp.nu)
