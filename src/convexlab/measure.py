"""Convex potentials u, the measures mu = e^{-u} dx, and Legendre machinery.

A Potential bundles vectorized callables for u, its gradient, and its Hessian.
On top of it this module provides the numerical Fenchel-Legendre conjugate
u*(y), the conjugate flow u_t = (u* + t*psi)* for a C^2 dual perturbation psi,
and the weighted mean curvature H_mu = tr(II) - <grad u, nu> of a body's
boundary.  One damped Newton loop runs both solves, grad u(z) = y and
z + t*grad psi(grad u(z)) = x; each gives it only its residual, its Newton
direction and its line-search test.

All evaluation is pure; points may be passed with any leading shape (..., 2).
u* is solved in one place, ``conjugate_potential(u)``, and a u_t without a
closed form in ``flow_potential``.  The value, gradient and Hessian of either
share one Newton solve per point set: each keeps the solves of the last two
point sets it saw, keyed on the exact bytes of the points, so a quadrature
cloud and a boundary grid read in turn are solved once each and every result
keeps the bits of a fresh solve.  ``conjugate`` and the dual perturbation
psi = alpha*u* read conjugate_potential, and ``conjugate_flow`` reads
flow_potential.
"""

import numpy as np

from .errors import (ConvexLabError, FlowNotConvex, InvalidInput, LebesgueModeRestriction,
                     NewtonDivergence, NotConvexPotential, PinchingViolation, _check_descriptor)

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
    "QuadraticPerturbation",
    "ConjugatePerturbation",
    "conjugate_flow",
    "flow_potential",
    "weighted_mean_curvature",
]

NEWTON_CAP = 100
NEWTON_TOL = 1e-12
ARMIJO = 1e-4
CONSISTENCY_STEP = 1e-6  # central-difference step of gradient_consistency
PINCHING_TOL = 1e-9  # slack of verify_pinching's eigenvalue and trace tests


def _flatten(points):
    pts = np.asarray(points, dtype=float)
    lead = pts.shape[:-1]
    return pts.reshape(-1, 2), lead


def _entries(H):
    """The entries h00, h01, h10, h11 of a (..., 2, 2) stack, as views."""
    return H[..., 0, 0], H[..., 0, 1], H[..., 1, 0], H[..., 1, 1]


def _det(h00, h01, h10, h11):
    """The determinants of the 2x2 matrices with the given entries."""
    return h00 * h11 - h01 * h10


def _spd_entries(h00, h01, h10, h11):
    """Elementwise SPD test for the 2x2 matrices with the given entries."""
    return (h00 > 0) & (_det(h00, h01, h10, h11) > 0)


def _solve_entries(h00, h01, h10, h11, rhs):
    """H^{-1} rhs for the 2x2 matrices H with the given entries and (m, 2) rhs."""
    det = _det(h00, h01, h10, h11)
    out = np.empty_like(rhs)
    out[:, 0] = (h11 * rhs[:, 0] - h01 * rhs[:, 1]) / det
    out[:, 1] = (h00 * rhs[:, 1] - h10 * rhs[:, 0]) / det
    return out


def _inv_entries(h00, h01, h10, h11):
    """The entries of the inverses of the 2x2 matrices with the given entries."""
    det = _det(h00, h01, h10, h11)
    return h11 / det, -h01 / det, -h10 / det, h00 / det


def _stack(h00, h01, h10, h11):
    """The (m, 2, 2) stack with the given (m,) entries."""
    out = np.empty(np.shape(h00) + (2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = h00, h01, h10, h11
    return out


def _inv_2x2(H):
    return _stack(*_inv_entries(*_entries(H)))


# Per-point 2x2 algebra written out in np.einsum's own order, so each kernel
# equals the einsum it names bit for bit: products left to right, the first
# summed index outer and the second inner, accumulated onto +0.0 as einsum's
# zeroed output is (the leading ``0.0 +`` turns an all -0.0 sum into +0.0).
# On a stack of one point (up to two for _qform) einsum's iterator moves the
# short point axis out of the inner loop and sums each row of a 4-term form
# apart, so _qform and _hgg group their sums the same way there.  A per-point
# (m, 2) result is written a column at a time, as _solve_entries and the suite's
# field gradients do: an operation broadcast along the trailing axis makes
# numpy's inner loop run over that axis, of length 2.  So the potentials'
# gradients and Hessians, the quadratic psi's gradient, translate_potential's
# p - v and _newton's trial points are written a column at a time, _qform and
# _hgg read contiguous copies of their point columns, _hgg takes H as four
# entries (quad stores (del^2 u)^{-1} as contiguous rows), and _flow_newton's
# Jacobian I + t psi'' u'' and its dual Hessian A are four (m,) entries with the
# operands of _inv_2x2 and of the stacked product _matmul_2x2 in
# tests/test_kernels.py in their order, never as an (m, 2, 2) stack read back
# entry by entry; a quadratic psi's Hessian enters as the scalars of B.  _dot2,
# _qform, _hgg and the quartic's gradient factor accumulate in place (``+=``,
# ``*=``): the same operation on the same operands, one temporary fewer.
# _quadratic's gradient keeps ``p @ A.T`` on the transposed view: a contiguous
# copy of A.T is faster, but BLAS then rounds a one-row product another way.


def _dot2(a, b):
    """einsum("...i,...i->...", a, b); broadcasting gives H v and v C as well."""
    out = np.multiply(a[..., 0], b[..., 0], dtype=float)
    out += 0.0
    out += a[..., 1] * b[..., 1]
    return out


def _qform(p, A, q):
    """einsum("ij,jk,ik->i", p, A, q) for one (2, 2) matrix A, any leading shape."""
    p0, p1 = p[..., 0].copy(), p[..., 1].copy()
    q0, q1 = (p0, p1) if q is p else (q[..., 0].copy(), q[..., 1].copy())
    t00, t01 = p0 * A[0, 0], p0 * A[0, 1]
    t10, t11 = p1 * A[1, 0], p1 * A[1, 1]
    t00 *= q0
    t01 *= q1
    t10 *= q0
    t11 *= q1
    if t00.size <= 2:
        return 0.0 + ((t00 + t01) + (t10 + t11))
    t00 += 0.0
    t00 += t01
    t00 += t10
    t00 += t11
    return t00


def _hgg(h, a, b):
    """einsum("ijk,ik,ij->i", H, a, b), i.e. <H a, b> per point, from H's entries h.

    h = (h00, h01, h10, h11), e.g. ``_entries(H)``, has the leading shape of a
    and b (no broadcasting: the products are in place).  Exact for a C-ordered
    H: with an F-ordered H, einsum sums k outer and j inner, moving an ulp.
    """
    h00, h01, h10, h11 = h
    a0, a1 = a[..., 0].copy(), a[..., 1].copy()
    b0, b1 = (a0, a1) if b is a else (b[..., 0].copy(), b[..., 1].copy())
    t00, t01, t10, t11 = h00 * a0, h01 * a1, h10 * a0, h11 * a1
    t00 *= b0
    t01 *= b0
    t10 *= b1
    t11 *= b1
    if t00.size == 1:
        return 0.0 + ((t00 + t01) + (t10 + t11))
    for t in (0.0, t01, t10, t11):
        t00 += t
    return t00


class Potential:
    """Smooth convex potential with vectorized value/gradient/Hessian.

    The kinds "gaussian" and "quadratic" promise a constant Hessian: the
    flow's closed form reads A from it at the origin.
    """

    def __init__(self, kind, value, grad, hess, is_even=False, pinching=None,
                 descriptor=None):
        self.kind = kind
        self._value = value
        self._grad = grad
        self._hess = hess
        self.is_even = bool(is_even)
        if pinching is not None and (None in pinching or not 0 < pinching[0] <= pinching[1]):
            raise InvalidInput(f"pinching needs both constants with 0 < k1 <= k2, got {pinching}")
        self.pinching = None if pinching is None else (float(pinching[0]), float(pinching[1]))
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


def _quadratic(A):
    """(value, grad, hess) callables of <Ap, p>/2 for a symmetric (2, 2) array A."""
    return (lambda p: 0.5 * _qform(p, A, p), lambda p: p @ A.T,
            lambda p: np.broadcast_to(A, (len(p), 2, 2)).copy())


def gaussian_potential():
    """u = |x|^2 / 2; self-dual, pinching k1 = k2 = 1.

    The Hessian is _quadratic's; value and gradient keep their own forms, as
    ``p @ I.T`` would turn a -0.0 into +0.0 and cost the flows time.
    """
    def value(p):
        return 0.5 * _dot2(p, p)

    def grad(p):
        return p.copy()

    return Potential("gaussian", value, grad, _quadratic(np.eye(2))[2], is_even=True,
                     pinching=(1.0, 1.0), descriptor={"kind": "gaussian"})


def quadratic_potential(A):
    """u = <Ax, x> / 2 for symmetric positive definite A."""
    A = np.asarray(A, dtype=float).reshape(2, 2)
    if not np.abs(A).max() < np.inf:  # negated, so that NaN fails too
        raise InvalidInput(f"quadratic potential needs a finite A, got {A.tolist()}")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12):
        raise NotConvexPotential("quadratic potential needs a symmetric matrix")
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0:
        raise NotConvexPotential(f"matrix eigenvalues {eigs} are not all positive")
    return Potential("quadratic", *_quadratic(A), is_even=True,
                     pinching=(eigs[0], eigs[1]),
                     descriptor={"kind": "quadratic", "A": A.tolist()})


def even_quartic_potential(eps):
    """u = |x|^2/2 + eps*|x|^4 for eps >= 0.

    No global upper Hessian bound exists for eps > 0, so pinching stays
    undeclared; ``make_potential`` attaches one, which is then checked on
    quadrature nodes, not globally.
    """
    eps = float(eps)
    if not 0 <= eps < np.inf:
        raise NotConvexPotential("even-quartic needs a finite eps >= 0")

    def value(p):
        n2 = _dot2(p, p)
        return 0.5 * n2 + eps * n2**2

    def grad(p):
        s = 4.0 * eps * _dot2(p, p)
        s += 1.0
        out = np.empty_like(p)
        out[:, 0] = p[:, 0] * s
        out[:, 1] = p[:, 1] * s
        return out

    def hess(p):
        p0, p1 = p[:, 0], p[:, 1]
        diag = 1.0 + 4.0 * eps * _dot2(p, p)
        out = np.empty((len(p), 2, 2))
        out[:, 0, 0] = (0.0 + p0 * p0) * (8.0 * eps) + diag
        out[:, 0, 1] = out[:, 1, 0] = (0.0 + p0 * p1) * (8.0 * eps)
        out[:, 1, 1] = (0.0 + p1 * p1) * (8.0 * eps) + diag
        return out

    return Potential("even-quartic", value, grad, hess, is_even=True,
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
    """Build a potential from a descriptor dict (CLI entry point).

    Kinds: ``gaussian``, ``quadratic`` (A, required), ``even-quartic`` (eps,
    default 0) and ``zero``.  Each kind takes ``pinching`` = (k1, k2), which
    replaces its own constants.  An unknown kind, a key the kind does not
    read, a quadratic without A, a pinching that breaks 0 < k1 <= k2 or any
    pinching on ``zero`` raises InvalidInput.
    """
    desc = dict(descriptor)
    kind = desc.pop("kind", None)
    pinching = desc.pop("pinching", None)
    _check_descriptor("potential", kind, desc, {"gaussian": (), "quadratic": ("A",),
                                                "even-quartic": ("eps",), "zero": ()})
    if kind == "quadratic" and "A" not in desc:
        raise InvalidInput("a quadratic potential needs its matrix A")
    if kind == "zero" and pinching is not None:
        raise InvalidInput("the zero potential's Hessian 0 is below any declared k1 > 0")
    u = {"gaussian": gaussian_potential, "zero": zero_potential,
         "quadratic": lambda: quadratic_potential(desc["A"]),
         "even-quartic": lambda: even_quartic_potential(desc.get("eps", 0.0))}[kind]()
    if pinching is None:
        return u
    return Potential(u.kind, u._value, u._grad, u._hess, is_even=u.is_even, pinching=pinching,
                     descriptor=u.descriptor)


def translate_potential(u, v):
    """Potential x -> u(x - v); pinching survives, evenness generally not."""
    v = np.asarray(v, dtype=float).reshape(2)
    if not np.abs(v).max() < np.inf:
        raise InvalidInput(f"translate_potential needs a finite v, got {v.tolist()}")

    def minus_v(p):
        q = np.empty_like(p)
        q[:, 0] = p[:, 0] - v[0]
        q[:, 1] = p[:, 1] - v[1]
        return q

    even = u.is_even and np.all(v == 0.0)
    return Potential("zero" if u.is_zero else "translated", lambda p: u._value(minus_v(p)),
                     lambda p: u._grad(minus_v(p)), lambda p: u._hess(minus_v(p)), is_even=even,
                     pinching=u.pinching,
                     descriptor={"kind": "translated", "base": u.descriptor, "v": v.tolist()})


def shift_potential(u, const):
    """Potential u + const; rescales the density of mu by e^{-const}.

    The kind is preserved so that a shifted zero potential keeps its
    Lebesgue-mode restrictions (its Hessian is still singular).
    """
    const = float(const)
    if not abs(const) < np.inf:
        raise InvalidInput(f"shift_potential needs a finite const, got {const}")

    def value(p):
        return u._value(p) + const

    return Potential(u.kind, value, u._grad, u._hess, is_even=u.is_even,
                     pinching=u.pinching,
                     descriptor={"kind": "shifted", "base": u.descriptor, "const": const})


# -- validation helpers ----------------------------------------------------------


def gradient_consistency(u, points):
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
    h = CONSISTENCY_STEP
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        vp, vm = u._value(pts + e), u._value(pts - e)
        worst_g = max(worst_g, np.abs((vp - vm) / (2 * h) - g[:, axis]).max() / scale_g)
        gp, gm = u._grad(pts + e), u._grad(pts - e)
        worst_h = max(worst_h, np.abs((gp - gm) / (2 * h) - H[:, :, axis]).max() / scale_h)
    return worst_g, worst_h


def verify_pinching(u, points):
    """Check k1*Id <= del^2 u and tr(del^2 u) <= 2*k2 at the given nodes."""
    if u.pinching is None:
        return
    k1, k2 = u.pinching
    pts, _ = _flatten(points)
    if not len(pts):
        raise ConvexLabError("no points to check the declared pinching at")
    h00, h01, h10, h11 = _entries(u._hess(pts))
    tr = h00 + h11
    with np.errstate(invalid="ignore"):  # a non-finite Hessian is refused below
        lam_min = 0.5 * (tr - np.sqrt(np.maximum(tr**2 - 4 * _det(h00, h01, h10, h11), 0.0)))
    # negated comparisons, so that a NaN Hessian fails instead of passing
    if not lam_min.min() >= k1 - PINCHING_TOL:
        raise PinchingViolation(
            f"min Hessian eigenvalue {lam_min.min():.6g} < declared k1 = {k1:.6g}")
    if not tr.max() <= 2.0 * k2 + PINCHING_TOL:
        raise PinchingViolation(
            f"max Laplacian {tr.max():.6g} > declared 2*k2 = {2 * k2:.6g}")


# -- Fenchel-Legendre conjugate ---------------------------------------------------


def _require_finite(points, what):
    """Raise a ConvexLabError naming the non-finite rows of an (m, 2) stack."""
    if not np.isfinite(points).all():
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
        raise ConvexLabError(
            f"{what} got {len(bad)} non-finite point(s), the first "
            f"{points[bad[0]].tolist()} at row {bad[0]}")


def _step(z, step, d):
    """z + step*d for (m, 2) stacks z, d and (m,) steps, a column at a time."""
    out = np.empty_like(z)
    out[:, 0] = z[:, 0] + step * d[:, 0]
    out[:, 1] = z[:, 1] + step * d[:, 1]
    return out


def _newton(name, x, tol, residual, direction):
    """Damped Newton from z = x, row by row, until |R| <= tol; returns z.

    ``residual(z, x)`` gives (R, *extras) on the working rows, and
    ``direction(z, x, err, R, *extras)`` the step d and a line-search test
    ``trial(zt, step)`` -> (ok per row, the residual tuple at zt or None).  A
    row is written to z and dropped from the working arrays (``compress``) on
    the iteration it meets its tolerance, so each kernel sees exactly the rows
    unfinished then, in input order, at that array length.  That fixes its
    rounding: the kernels round by array length (_qform groups one- and two-row
    sums apart, BLAS takes another path for a one-row ``@``).  A row halves its
    step until its trial passes, 60 times at most.  A search that accepts every
    row moves to its trial points, and their residual tuple seeds the next
    iteration; one that runs out takes the step zi + step*d, never evaluated.
    """
    _require_finite(x, name)
    idx, zi, xi = np.arange(len(x)), x.copy(), x
    z = np.empty_like(zi)
    seed = None
    for _ in range(NEWTON_CAP):
        if seed is None:
            seed = residual(zi, xi)
        err = np.hypot(seed[0][:, 0], seed[0][:, 1])
        done = err <= tol
        if done.any():
            z[idx[done]] = zi.compress(done, axis=0)
            keep = ~done
            idx, zi, xi, tol, err, *seed = (a.compress(keep, axis=0)
                                            for a in (idx, zi, xi, tol, err, *seed))
        if not len(idx):
            break
        d, trial = direction(zi, xi, err, *seed)
        step, pending = np.ones(len(idx)), np.ones(len(idx), dtype=bool)
        for _ in range(60):
            zt = _step(zi, step, d)
            ok, seed = trial(zt, step)
            pending &= ~ok
            if not pending.any():
                break
            step[pending] *= 0.5
        if pending.any():
            zi, seed = _step(zi, step, d), None
        else:
            zi = zt
    if len(idx):
        raise NewtonDivergence(f"{name} failed to converge for {len(idx)} point(s)")
    return z


def _conjugate_newton(u, y):
    """Solve grad u(z) = y for each row of y; returns (u*(y), z)."""
    def residual(z, y):
        return (u._grad(z) - y,)

    def direction(z, y, err, g):
        h = _entries(u._hess(z))
        if not _spd_entries(*h).all():
            raise NotConvexPotential("Hessian lost positive definiteness during conjugation")
        d = -_solve_entries(*h, g)
        # Armijo backtracking on q(z) = u(z) - <y, z>; the floor term keeps
        # rounding noise in q from rejecting converged full steps
        q0 = u._value(z) - _dot2(y, z)
        gd = _dot2(g, d)
        floor = 1e-14 * (np.abs(q0) + 1.0)
        return d, lambda zt, step: (
            u._value(zt) - _dot2(y, zt) <= q0 + ARMIJO * step * gd + floor, None)

    tol = NEWTON_TOL * (1.0 + np.hypot(y[:, 0], y[:, 1]))
    z = _newton("conjugate Newton", y, tol, residual, direction)
    return _dot2(y, z) - u._value(z), z


def conjugate(u, y):
    """Fenchel-Legendre transform: (u*(y), grad u*(y)).

    grad u*(y) is the point z with grad u(z) = y, and
    u*(y) = <y, z> - u(z).
    """
    ustar = conjugate_potential(u)
    return ustar.value(y), ustar.grad(y)


def _solved_potential(kind, solve, hess, is_even, descriptor):
    """A Potential whose value, gradient and Hessian share one solve per point set.

    ``solve(p)`` gives (value, gradient, *rest) on an (m, 2) stack p, and
    ``hess(*solved)`` the Hessian from that tuple.  The solves of the last two
    point sets read are kept read-only, keyed on the exact bytes of the points
    (signed zeros key apart); value and grad hand out fresh copies.
    """
    solves = {}  # bytes of p -> read-only solve, least recently used first

    def solved(p):
        key = p.tobytes()
        out = solves.pop(key, None)
        if out is None:
            out = solve(p)
            for a in out:
                a.flags.writeable = False
            if len(solves) == 2:
                del solves[next(iter(solves))]
        solves[key] = out
        return out

    return Potential(kind, lambda p: solved(p)[0].copy(), lambda p: solved(p)[1].copy(),
                     lambda p: hess(*solved(p)), is_even=is_even, descriptor=descriptor)


def conjugate_potential(u):
    """u* wrapped as a Potential (hess u* = (hess u)^{-1} at the solve point).

    One _conjugate_newton per point set, as the module docstring says.
    Conjugating it again recovers u: the involution check.
    """
    u.require_strictly_convex("the Legendre conjugate")
    return _solved_potential("conjugate", lambda y: _conjugate_newton(u, y),
                             lambda val, z: _inv_2x2(u._hess(z)), u.is_even,
                             {"kind": "conjugate", "base": u.descriptor})


# -- dual perturbations psi -------------------------------------------------------
# A psi has value, grad and hess on points (..., 2), and kind, is_even, descriptor.


class QuadraticPerturbation:
    """psi(y) = <By, y>/2 + <b, y> + c (B symmetric, possibly indefinite)."""

    kind = "quadratic"

    def __init__(self, B=None, b=None, c=0.0):
        self.B = np.zeros((2, 2)) if B is None else np.asarray(B, dtype=float).reshape(2, 2)
        self.b = np.zeros(2) if b is None else np.asarray(b, dtype=float).reshape(2)
        self.c = float(c)
        for name, v in (("B", self.B), ("b", self.b), ("c", self.c)):
            if not np.abs(v).max() < np.inf:
                raise InvalidInput(f"quadratic perturbation needs a finite {name}")
        if not np.allclose(self.B, self.B.T, rtol=0.0, atol=1e-12):
            raise InvalidInput("quadratic perturbation needs a symmetric matrix")
        self.is_even = bool(np.all(self.b == 0.0) and self.c == 0.0)
        self.descriptor = {"kind": "quadratic", "B": self.B.tolist(),
                           "b": self.b.tolist(), "c": self.c}

    def value(self, y):
        flat, lead = _flatten(y)
        out = _quadratic(self.B)[0](flat) + flat @ self.b + self.c
        return out.reshape(lead)

    def grad(self, y):
        flat, lead = _flatten(y)
        out = _quadratic(self.B)[1](flat)
        out[:, 0] += self.b[0]
        out[:, 1] += self.b[1]
        return out.reshape(lead + (2,))

    def hess(self, y):
        flat, lead = _flatten(y)
        return _quadratic(self.B)[2](flat).reshape(lead + (2, 2))


class ConjugatePerturbation:
    """psi = alpha * u*; the homothety direction of the conjugate flow."""

    kind = "conjugate"

    def __init__(self, u, alpha):
        u.require_strictly_convex("psi = alpha * u*")
        if not 0 <= alpha < np.inf:
            raise InvalidInput(f"alpha must be finite and >= 0, got {alpha}")
        self.base = u
        self.alpha = float(alpha)
        self.is_even = u.is_even
        self.descriptor = {"kind": "conjugate", "alpha": self.alpha,
                           "base": u.descriptor}
        self.conjugate = conjugate_potential(u)

    def value(self, y):
        return self.alpha * self.conjugate.value(y)

    def grad(self, y):
        return self.alpha * self.conjugate.grad(y)

    def hess(self, y):
        return self.alpha * self.conjugate.hess(y)


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
        return (lambda p: s * u._value(p / s), lambda p: u._grad(p / s),
                lambda p: u._hess(p / s) / s)
    if u.kind in ("gaussian", "quadratic") and isinstance(psi, QuadraticPerturbation):
        Mt = np.linalg.inv(u._hess(np.zeros((1, 2)))[0]) + t * psi.B
        eigs = np.linalg.eigvalsh(Mt)
        if eigs[0] <= 0:
            raise FlowNotConvex(
                f"A^{{-1}} + t*B has eigenvalues {eigs}; dual lost convexity")
        # u = <Ax, x>/2 + u(0), possibly shifted, so u* + t psi is the quadratic
        # of Mt = A^{-1} + tB plus <tb, y> + tc - u(0), and its conjugate is the
        # quadratic of Mt^{-1} translated by tb and shifted by u(0) - tc
        u_t = shift_potential(translate_potential(
            Potential("quadratic", *_quadratic(np.linalg.inv(Mt))), t * psi.b),
            u._value(np.zeros((1, 2)))[0] - t * psi.c)
        return u_t._value, u_t._grad, u_t._hess
    return None


def _psi_hess_entries(psi, y):
    """psi's Hessian at the (m, 2) stack y, entry by entry: (m,) arrays, or the
    scalars of B for a QuadraticPerturbation, whose Hessian is B everywhere
    (a subclass may override ``hess``, so it goes through ``psi.hess``)."""
    if type(psi) is QuadraticPerturbation:
        return psi.B[0, 0], psi.B[0, 1], psi.B[1, 0], psi.B[1, 1]
    return _entries(psi.hess(y))


def _flow_newton(u, psi, t, x):
    """Solve z + t*grad psi(grad u(z)) = x; returns (u_t(x), grad u_t(x), A).

    This is the stationarity condition of sup_y <x,y> - u*(y) - t*psi(y)
    after the substitution y = grad u(z); the maximizer is y = grad u(z) =
    grad u_t(x).  An accepted line search's grad u and residual seed the next
    iteration.  A = (u''(z))^{-1} + t psi''(y), the Hessian of u* + t*psi at y,
    comes as the (4, m) rows of its entries: u_t'' = A^{-1}.  Raises
    FlowNotConvex unless A is positive definite at every point.
    """
    def residual(z, x):
        y = u._grad(z)
        return z + t * psi.grad(y) - x, y

    def direction(z, x, err, R, y):
        p00, p01, p10, p11 = _psi_hess_entries(psi, y)
        h00, h01, h10, h11 = _entries(u._hess(z))

        def entry(pa, ha, pb, hb):
            return t * (0.0 + pa * ha + pb * hb)

        # J = I + t psi''(y) u''(z), each entry summed as the reference
        # _matmul_2x2 in tests/test_kernels.py sums it
        j00, j01 = entry(p00, h00, p01, h10), entry(p00, h01, p01, h11)
        j10, j11 = entry(p10, h00, p11, h10), entry(p10, h01, p11, h11)
        j00 += 1.0
        j11 += 1.0
        if np.any(np.abs(_det(j00, j01, j10, j11)) < 1e-14):
            raise FlowNotConvex("flow Jacobian became singular; t is past the window")
        # backtracking on the residual merit 0.5*|R|^2, with a rounding floor
        phi0 = 0.5 * err ** 2

        def trial(zt, step):
            Rt, yt = residual(zt, x)
            return 0.5 * _dot2(Rt, Rt) <= (1.0 - 2.0 * ARMIJO * step) * phi0 + floor, (Rt, yt)

        return -_solve_entries(j00, j01, j10, j11, R), trial

    scale = 1.0 + np.abs(x).max(initial=0.0)  # initial: an empty x has no max
    floor = 0.5 * (1e-14 * scale) ** 2
    z = _newton("flow Newton", x, np.full(len(x), NEWTON_TOL * scale), residual, direction)
    y = u._grad(z)
    i00, i01, i10, i11 = _inv_entries(*_entries(u._hess(z)))
    p00, p01, p10, p11 = _psi_hess_entries(psi, y)
    A = np.stack([i00 + t * p00, i01 + t * p01, i10 + t * p10, i11 + t * p11])
    if not _spd_entries(*A).all():
        raise FlowNotConvex("u* + t*psi is not strictly convex at the maximizer")
    return _dot2(x - z, y) + u._value(z) - t * psi.value(y), y, A


def _flow_potential(u, psi, t, method):
    """u_t = (u* + t*psi)* as a Potential, by ``method`` as conjugate_flow says.

    The Newton-backed u_t shares one _flow_newton per point set, as
    conjugate_potential shares its solve, and its Hessian is A^{-1}.  The
    closed-form callables name non-finite rows of their (m, 2) stacks, as
    the Newton path does.
    """
    if method not in ("auto", "newton", "closed"):
        raise ValueError(f"unknown flow method {method!r}: expected 'auto', 'newton' "
                         "or 'closed'")
    u.require_strictly_convex("the conjugate flow")
    t = float(t)
    if not np.isfinite(t):
        raise ConvexLabError(f"the conjugate flow needs a finite t, got t = {t}")
    closed = None if method == "newton" else _flow_closed_form(u, psi, t)
    if closed is None and method == "closed":
        raise ValueError("no closed-form path for this (u, psi) pair")
    is_even = u.is_even and psi.is_even
    descriptor = {"kind": "flow", "base": u.descriptor, "psi": psi.descriptor, "t": t}
    if closed:
        def guarded(f):
            def call(p):
                _require_finite(p, "flow closed form")
                return f(p)
            return call
        return Potential("flow", *map(guarded, closed), is_even=is_even, descriptor=descriptor)
    return _solved_potential(
        "flow", lambda x: _flow_newton(u, psi, t, x),
        lambda val, y, A: _stack(*_inv_entries(*A)), is_even, descriptor)


def conjugate_flow(u, psi, t, x, method="auto"):
    """u_t(x), grad u_t(x), and hess u_t(x) for u_t = (u* + t*psi)*.

    ``method`` is "auto" (closed form when available, Newton otherwise),
    "newton", or "closed" (raises if no closed form applies); any other
    value raises ValueError.  u must be strictly convex and t finite.
    """
    u_t = _flow_potential(u, psi, t, method)
    return u_t.value(x), u_t.grad(x), u_t.hess(x)


def flow_potential(u, psi, t):
    """The flowed potential u_t = (u* + t*psi)* wrapped as a Potential."""
    return _flow_potential(u, psi, t, "auto")


# -- weighted mean curvature ------------------------------------------------------


def weighted_mean_curvature(body, u):
    """H_mu = 1/r(theta) - <grad u(x(theta)), nu(theta)> (planar tr(II) = 1/r) on the grid."""
    return 1.0 / body.radius_grid - _dot2(u.grad(body.boundary_grid), body.normals_grid)
