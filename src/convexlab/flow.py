"""The joint Wulff/Legendre flow and its shape derivatives.

For a direction f on normal angles and a dual perturbation psi, the flow moves
the body to K_t = [h + t*f] and the potential to u_t = (u* + t*psi)*.  The
log-marginal

    S(t) = log I(t),   I(t) = int_{K_t} e^{-u_t} dx,

is concave in t on the admissible window.  Its explicit derivatives at 0 are

    I'(0)  = int_K psi(grad u) dmu + int_dK f dmu
    I''(0) = int_K psi(grad u)^2 dmu
             - int_K <del^2 u grad psi(grad u), grad psi(grad u)> dmu
             + 2 int_dK f psi(grad u) dmu + int_dK H_mu f^2 dmu
             - int_dK <II^{-1} grad_dK (f o nu), grad_dK (f o nu)> dmu,

the last term carrying an overall minus sign (the resolution is pinned by the
finite-difference oracle and by the cross-module identity

    S''(0) I(0) = -( <rho,rho>_P + <phi,phi>_BL - 2 <rho,phi>_I )

with rho = f(nu), phi = psi(grad u)).

``marginal_S`` evaluates I(t) once per t of its grid: the window search of
``select_epsilon`` has computed I(-eps) and I(+eps) already, and the grid's
end points are those two values.
"""

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import FlowNotConvex, InvalidInput, OriginOutside, PerturbationTooLarge
from .forms import _boundary_field, check_mean_form
from .geometry import gauge_angle, wulff_perturb
from .measure import _dot2, _entries, _hgg, flow_potential
from .quad import (DEFAULT_Q, InteriorField, _boundary_weight, _hmu, _mu,
                   boundary_integral, interior_integral, interior_nodes)

__all__ = [
    "FlowConfig",
    "select_epsilon",
    "flow_setup",
    "vector_field_X",
    "marginal_value",
    "marginal_S",
    "shape_derivatives",
    "mean_form_from_flow",
    "psi_composed_field",
]

MAX_HALVINGS = 12  # of eps in select_epsilon's window search


@dataclass(frozen=True)
class FlowConfig:
    """Wulff direction f, dual perturbation psi, and the symmetric t-grid."""

    f: object
    psi: object = None
    eps: float = 0.1
    n_t: int = 21

    def __post_init__(self):
        if not (isinstance(self.n_t, numbers.Integral) and self.n_t >= 3):
            raise InvalidInput(f"n_t must be an integer >= 3, got {self.n_t!r}")
        if not (isinstance(self.eps, numbers.Real) and 0 < self.eps < np.inf):
            raise InvalidInput(f"eps must be finite and > 0, got {self.eps!r}")

    def t_grid(self):
        return np.linspace(-self.eps, self.eps, self.n_t)


def flow_setup(body, u, f, psi, t):
    """(K_t, u_t) for one admissible t."""
    # flow_potential and wulff_perturb each reject a non-finite t by name
    u_t = u if psi is None or t == 0.0 else flow_potential(u, psi, t)
    body_t = wulff_perturb(body, f, t) if t != 0.0 else body
    return body_t, u_t


def marginal_value(body, u, f, psi, t, Q=DEFAULT_Q):
    """I(t) = mu_t(K_t) for one admissible t (the flow's marginal)."""
    body_t, u_t = flow_setup(body, u, f, psi, t)
    return _mu(body_t, u_t, Q)


def select_epsilon(body, u, cfg, Q=DEFAULT_Q):
    """Halve eps until both flow legs are admissible at +-eps; return (cfg, I(-eps), I(+eps)).

    Admissibility is an interval around t = 0 for both checks (convexity of
    h + t*f is linear in t; convexity of u* + t*psi holds on an interval), so
    testing the endpoints suffices.
    """
    eps = float(cfg.eps)
    for _ in range(MAX_HALVINGS):
        try:
            hi = marginal_value(body, u, cfg.f, cfg.psi, +eps, Q)
            lo = marginal_value(body, u, cfg.f, cfg.psi, -eps, Q)
            return replace(cfg, eps=eps), lo, hi
        except (PerturbationTooLarge, FlowNotConvex, OriginOutside):
            eps *= 0.5
    raise PerturbationTooLarge(
        f"no admissible window found after {MAX_HALVINGS} halvings of eps")


def vector_field_X(body, f, t, x):
    """X_t(x) = x + t ||x||_K grad f(nu_K(x / ||x||_K)).

    grad f is the gradient of the 1-homogeneous extension; on the circle it
    reduces to f'(theta) tau(theta) + f(theta) nu(theta).  X_t maps each
    scaled boundary d(s K) onto d(s K_t) and fixes the origin.
    """
    _boundary_field(f, body.M)
    pts = np.asarray(x, dtype=float)
    flat = pts.reshape(-1, 2)
    s, theta = gauge_angle(body, flat)
    c, sn = np.cos(theta)[:, None], np.sin(theta)[:, None]
    f0, f1 = f.eval(theta, (0, 1))
    grad_f = f1[:, None] * np.hstack([-sn, c]) + f0[:, None] * np.hstack([c, sn])
    # the origin (s = 0) stays put exactly, signed zeros included
    out = np.where((s == 0.0)[:, None], flat, flat + t * s[:, None] * grad_f)
    return out.reshape(pts.shape[:-1] + (2,))


def marginal_S(body, u, cfg, Q=DEFAULT_Q):
    """Tabulate (t, I(t), S(t)) over the config's grid with concavity data.

    Returns a dict with the grid, the marginal, S = log I, the centered
    second differences of S, and the resolved eps.
    """
    cfg, lo, hi = select_epsilon(body, u, cfg, Q)
    t_grid = cfg.t_grid()  # its ends are -eps and +eps exactly
    I_vals = np.array([lo] + [marginal_value(body, u, cfg.f, cfg.psi, t, Q)
                              for t in t_grid[1:-1]] + [hi])
    S_vals = np.log(I_vals)
    dt = t_grid[1] - t_grid[0]
    d2 = (S_vals[2:] - 2.0 * S_vals[1:-1] + S_vals[:-2]) / dt**2
    return {"t": t_grid, "I": I_vals, "S": S_vals,
            "second_differences": d2, "eps": cfg.eps,
            "max_second_difference": float(d2.max())}


def psi_composed_field(u, psi):
    """phi = psi(grad u) as an interior field with analytic gradient.

    grad (psi o grad u)(x) = del^2 u(x) grad psi(grad u(x)).
    """
    def value(pts):
        return psi.value(u.grad(pts))

    def grad(pts):
        return _dot2(u.hess(pts), psi.grad(u.grad(pts))[..., None, :])

    return InteriorField(value, grad, descriptor={"kind": "psi-composed",
                                                  "psi": psi.descriptor})


def shape_derivatives(body, u, f, psi=None, Q=DEFAULT_Q):
    """I(0), I'(0), I''(0), S''(0) from the explicit formulas."""
    _boundary_field(f, body.M)
    w_theta = 2.0 * np.pi / body.M
    I0 = _mu(body, u, Q)

    if psi is None:
        psi_int = 0.0
        psi_sq = 0.0
        psi_grad = 0.0
        psi_bd = np.zeros(body.M)
    else:
        # grad u, phi = psi(grad u) and grad psi(grad u) are evaluated once on
        # the interior nodes, and interior_integral takes the node values
        pts = interior_nodes(body, Q)[0]
        du = u.grad(pts)
        phi_nodes = psi.value(du)
        psi_int = interior_integral(body, u, phi_nodes, Q=Q)
        psi_sq = interior_integral(body, u, phi_nodes ** 2, Q=Q)
        g = psi.grad(du)
        psi_grad = interior_integral(body, u, _hgg(_entries(u.hess(pts)), g, g), Q=Q)
        psi_bd = psi.value(u.grad(body.boundary_grid))

    f_bd = boundary_integral(body, u, f.values)
    I1 = psi_int + f_bd
    I2 = (psi_sq - psi_grad
          + 2.0 * boundary_integral(body, u, f.values * psi_bd)
          + boundary_integral(body, u, _hmu(body, u) * f.values**2)
          - float(np.sum(f.deriv() ** 2 * _boundary_weight(body, u)) * w_theta))
    S2 = I2 / I0 - (I1 / I0) ** 2
    return {"I0": I0, "I1": I1, "I2": I2, "S2": S2}


def mean_form_from_flow(body, u, f, psi, Q=DEFAULT_Q, derivatives=None):
    """Cross-module oracle: S''(0) I(0) must equal -(P + BL - 2I).

    The left side comes from the flow's explicit derivatives with rho = f(nu)
    and phi = psi(grad u); the right side from ``forms.check_mean_form``.
    ``derivatives`` takes a ``shape_derivatives(body, u, f, psi, Q)`` result
    already at hand, which is then not computed again.
    """
    d = derivatives if derivatives is not None else shape_derivatives(body, u, f, psi, Q=Q)
    lhs = d["I2"] - d["I1"] ** 2 / d["I0"]  # = S''(0) * I(0)
    phi = psi_composed_field(u, psi) if psi is not None else InteriorField.constant(0.0)
    rep = check_mean_form(body, u, f, phi, Q=Q)
    rhs = -(rep.P + rep.BL - 2.0 * rep.I)
    return {"flow_side": lhs, "forms_side": rhs, "P": rep.P, "BL": rep.BL, "I": rep.I,
            "mismatch": abs(lhs - rhs), "scale": rep.scale,
            "passed": bool(abs(lhs - rhs) <= 1e-7 * rep.scale)}
