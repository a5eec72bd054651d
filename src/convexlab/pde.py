"""Spectral Galerkin solver for the boundary Euler-Lagrange equation.

The boundary form <.,.>_P restricted to the trigonometric basis
e_0 = 1, e_{2k-1} = cos k*theta, e_{2k} = sin k*theta (k <= N) has Gram matrix

    G = A - B + m m^T / mu(K),

with stiffness A_jk = int e_j' e_k' e^{-u(x(theta))} dtheta, weighted mass
B_jk = int H_mu e_j e_k dmu, and moments m_j = int_dK e_j dmu.  G is positive
definite (coercivity); its Cholesky failure is treated as a falsification
event.  Solving G c = m gives the minimizer rho_bar of the Rayleigh quotient

    J(rho) = mu(K) <rho,rho>_P / (int_dK rho dmu)^2,

whose minimum is the concavity power p(mu, K) = mu(K) / int_dK rho_bar dmu.

The strong form of the operator (planar reduction, derived from the weak form
by integration by parts on the circle) is

    L(rho) = -rho''/r + <grad u(x(theta)), tau(theta)> rho'
             - H_mu rho + (1/mu(K)) int_dK rho dmu,

and rho_bar satisfies L(rho_bar) = 1.

The basis samples E (values) and D (derivatives) on the body grid depend on
(N, M) alone.  Like geometry's frame ``_frame(M)`` and spectral's
``_derivative_factor``, they are per-grid constants: ``spectral._grid_basis``
builds them once per (N, M), and every system on that grid shares them
read-only.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import spectral
from .errors import (CoercivityFailure, InvalidInput, LebesgueModeRestriction,
                     NonFiniteIntegral, ZeroMean)
from .forms import _boundary_field, form_P
from .measure import _dot2
# interior_nodes is not called here, but perfbench's tracer test reads pde.interior_nodes
from .quad import (DEFAULT_Q, InteriorField, _boundary_measure, _boundary_weight, _check_pinching,
                   _hmu, _mu, boundary_integral, interior_integral, interior_nodes)  # noqa: F401
from .spectral import BoundaryField

__all__ = [
    "PoincareSystem",
    "assemble",
    "solve_rho_bar",
    "concavity_power",
    "apply_L",
    "support_identity_check",
    "radial_moment_field",
    "rayleigh",
    "solve_report",
]

DEFAULT_N = 16


@dataclass(frozen=True)
class PoincareSystem:
    """Assembled Galerkin matrices of <.,.>_P on the trigonometric basis.

    Also keeps the basis samples they were built from: E (values) and D
    (derivatives) on the body grid, one row per basis function.
    """

    body: object
    potential: object
    N: int
    even_only: bool
    E: np.ndarray
    D: np.ndarray
    A: np.ndarray
    B: np.ndarray
    m: np.ndarray
    muK: float
    G: np.ndarray
    chol: tuple

    @property
    def dim(self):
        return self.G.shape[0]

    @cached_property
    def mass(self):
        """L^2(dK, mu) Gram matrix int e_j e_k dmu."""
        w_theta = 2.0 * np.pi / self.body.M
        return (self.E * _boundary_measure(self.body, self.potential)) @ self.E.T * w_theta

    @cached_property
    def S(self):
        """H^1(dK, mu) Gram matrix S_jk = int (e_j e_k + e_j' e_k' / r^2) dmu."""
        w_theta = 2.0 * np.pi / self.body.M
        wu = _boundary_weight(self.body, self.potential)
        S = self.mass + (self.D * (wu / self.body.radius_grid)) @ self.D.T * w_theta
        return 0.5 * (S + S.T)


def assemble(body, u, N=DEFAULT_N, Q=DEFAULT_Q, even_only=False):
    """Assemble the Galerkin system; Cholesky of G must succeed.

    ``even_only`` restricts the basis to {1, cos 2k, sin 2k} (the admissible
    perturbations of an origin-symmetric problem).  Declared Hessian pinching
    is verified eagerly on all quadrature nodes, once per (body, u, Q).

    In Lebesgue mode (u == 0) the matrices are still assembled (they satisfy
    the elementary trig identities), but G is genuinely singular there: the
    first harmonics <v, nu> are null directions of the form, matching the
    translation equality cases of the unweighted inequality.  No factorization
    is attempted and the solve is refused.
    """
    if not isinstance(N, (int, np.integer)):
        raise InvalidInput(f"basis order N must be an integer, got {N!r}")
    if N < 4:
        raise InvalidInput("basis order N must be >= 4")
    if 2 * N >= body.M:
        raise InvalidInput(f"basis order N = {N} needs 2N < M = {body.M}: the grid "
                           "cannot tell the top harmonics apart")
    if u.pinching is not None:
        _check_pinching(body, u, Q)

    w_theta = 2.0 * np.pi / body.M
    wu = _boundary_weight(body, u)
    r = body.radius_grid
    hmu = _hmu(body, u)

    E, D = spectral._grid_basis(N, body.M)
    if even_only:  # {1, cos 2k, sin 2k}: the functions even under x -> -x
        even = spectral._harmonic(2 * N + 1) % 2 == 0
        E, D = E[even], D[even]

    A = (D * wu) @ D.T * w_theta
    B = (E * (hmu * wu * r)) @ E.T * w_theta
    m = E @ _boundary_measure(body, u) * w_theta
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    muK = _mu(body, u, Q)
    G = A - B + np.outer(m, m) / muK
    G = 0.5 * (G + G.T)
    if u.is_zero:
        chol = None
    else:
        import scipy.linalg  # here, not at module level: forms-check and flow never load it
        try:
            chol = scipy.linalg.cho_factor(G, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise CoercivityFailure(
                f"Cholesky of the P-form Gram matrix failed at N={N}: {exc}"
            ) from exc
    return PoincareSystem(body=body, potential=u, N=N, even_only=even_only,
                          E=E, D=D, A=A, B=B, m=m, muK=muK, G=G, chol=chol)


def solve_rho_bar(system):
    """Weak solution of <rho_bar, rho>_P = int rho dmu for all basis rho.

    Returns a BoundaryField on the body grid with the Galerkin coefficient
    vector attached as ``.galerkin_coeffs``; uniqueness follows from G > 0.
    """
    if system.chol is None:
        raise LebesgueModeRestriction(
            "the Euler-Lagrange solve needs a strictly convex potential; "
            "for u == 0 the form has translation null directions")
    import scipy.linalg  # here, not at module level: forms-check and flow never load it
    c = scipy.linalg.cho_solve(system.chol, system.m)
    field = BoundaryField(system.E.T @ c)
    field.galerkin_coeffs = c
    return field


def _solve(system):
    """rho_bar, mc = int_dK rho_bar dmu and p = mu(K) / mc; a p that is not finite raises."""
    rho_bar = solve_rho_bar(system)
    mc = system.m @ rho_bar.galerkin_coeffs
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p = float(system.muK / mc)
    if not np.isfinite(p):
        raise NonFiniteIntegral(
            f"p = mu(K) / int rho_bar dmu = {system.muK:.6g} / {mc:.6g} is not finite")
    return rho_bar, mc, p


def concavity_power(body, u, N=DEFAULT_N, Q=DEFAULT_Q, even_only=False):
    """p(mu, K) = mu(K) / int_dK rho_bar dmu  (= mu(K) / <rho_bar, rho_bar>_P)."""
    return _solve(assemble(body, u, N=N, Q=Q, even_only=even_only))[2]


def apply_L(body, u, rho, Q=DEFAULT_Q):
    """Strong form of the boundary elliptic operator applied to rho.

    Valid in Lebesgue mode (u == 0) as well, where the drift term vanishes
    and L(h(nu)) == 1 identically.
    """
    _boundary_field(rho, body.M)
    r = body.radius_grid
    drift = _dot2(u.grad(body.boundary_grid), body.tangents_grid)
    mean = boundary_integral(body, u, rho.values) / _mu(body, u, Q)
    vals = (-rho.deriv(2) / r + drift * rho.deriv(1) - _hmu(body, u) * rho.values + mean)
    return BoundaryField(vals)


def support_identity_check(body, u, Q=DEFAULT_Q):
    """Residuals of the two support-function identities (n = 2).

    pointwise:  L(h(nu)) = 1 + <grad u, x> - (1/mu(K)) int_K <grad u, x> dmu
    integral:   int_dK h dmu = 2 mu(K) - int_K <grad u, x> dmu
    """
    xb = body.boundary_grid
    moment = radial_moment_field(u)
    int_moment = interior_integral(body, u, moment, Q=Q)
    muK = _mu(body, u, Q)
    lhs = apply_L(body, u, body, Q=Q).values
    rhs = 1.0 + _dot2(u.grad(xb), xb) - int_moment / muK
    scale_pw = max(1.0, float(np.abs(rhs).max()))
    resid_pointwise = float(np.abs(lhs - rhs).max())

    lhs_int = boundary_integral(body, u, body.values)
    rhs_int = 2.0 * muK - int_moment
    scale_int = max(1.0, abs(rhs_int))
    resid_integral = abs(lhs_int - rhs_int)
    return {
        "pointwise_residual": resid_pointwise,
        "pointwise_scale": scale_pw,
        "integral_residual": resid_integral,
        "integral_scale": scale_int,
        "passed": bool(resid_pointwise <= 1e-8 * scale_pw
                       and resid_integral <= 1e-8 * scale_int),
    }


def radial_moment_field(u):
    """<grad u(x), x> as an interior field (its users read only the value)."""
    def value(pts):
        return _dot2(u.grad(pts), pts)

    return InteriorField(value, descriptor={"kind": "radial-moment"})


def rayleigh(body, u, rho, Q=DEFAULT_Q):
    """J(rho) = mu(K) <rho,rho>_P / (int_dK rho dmu)^2; J >= p(mu, K)."""
    _boundary_field(rho, body.M)
    mean = boundary_integral(body, u, rho.values)
    scale = boundary_integral(body, u, np.abs(rho.values)) + 1e-300
    if abs(mean) <= 1e-12 * scale:
        raise ZeroMean("Rayleigh quotient undefined: int rho dmu vanishes")
    return float(_mu(body, u, Q) * form_P(body, u, rho, rho, Q=Q) / mean**2)


def solve_report(body, u, N=DEFAULT_N, Q=DEFAULT_Q):
    """Full solve on the full basis: rho_bar, p, strong residual, and conditioning data."""
    system = assemble(body, u, N=N, Q=Q)
    rho_bar, mc, p = _solve(system)
    strong = apply_L(body, u, rho_bar, Q=Q)
    residual = float(np.abs(strong.values - 1.0).max())
    return {
        "p": p,
        "rho_bar": rho_bar,
        "system": system,
        "p_form_identity": float(mc),  # equals <rho_bar, rho_bar>_P
        "strong_residual": residual,
        "condition_estimate": float(np.linalg.cond(system.G)),
        "muK": system.muK,
        "mu_boundary": boundary_integral(body, u, 1.0),
    }
