"""Spectral constants, Brunn-Minkowski segment checks, and moment bounds.

Quantities computed here, all at the discretized (Galerkin) level; the
three spectral constants read an assembled ``pde.PoincareSystem``:

  * lambda1:   best constant with  energy <= (1/lambda1) * stiffness, where
               stiffness(rho) = int <II^{-1} grad rho, grad rho> dmu and
               energy(rho) = int H_mu rho^2 dmu - (int rho dmu)^2 / mu(K);
               the claim under test is lambda1 > 1 (+inf when the energy form
               is nonpositive on the whole discretized space).
  * coercivity constant C:  <rho,rho>_P >= C ||rho||_{H^1}^2, the smallest
               eigenvalue of the pencil (G, S) with S the H^1 Gram matrix;
               1/sqrt(C) is the stability constant for the deficit estimate
               ||rho||_{H^1} <= sqrt(deficit / C).
  * interpolation constant: empirical sup of ||rho||_{L^2}^2 /
               (<rho,rho>_P^{1/2} ||rho||_{H^1}) over random fields.
  * bm_check:  slack of t -> mu((1-t)K + tL)^p - (1-t) mu(K)^p - t mu(L)^p.
  * reformulation: sign(p - 1/2) against the interaction quantity
               <rho_bar, <grad u, x>>_I + int_K <grad u, x> dmu, plus the
               intermediate identity int h dmu - int rho_bar dmu = <rho_bar, .>_I.
  * pinching bounds: with k1 Id <= del^2 u, Delta u <= 2 k2, r = k2/k1:
               moment M <= 2r,  1/p <= 2 + M,  p >= 1/(2(r+1)).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import CoercivityFailure, PinchingUndeclared
from .forms import form_I
from .geometry import minkowski_combine, wulff_perturb
from .measure import _inv_2x2
from .pde import DEFAULT_N, radial_moment_field, solve_report
from .quad import DEFAULT_Q, boundary_integral, interior_integral, interior_nodes

__all__ = [
    "BMReport",
    "lambda1",
    "coercivity_constant",
    "coercivity_report",
    "interpolation_constant",
    "bm_check",
    "local_concavity_fd",
    "reformulation_check",
    "pinching_bounds",
    "random_coefficients",
]


@dataclass
class BMReport:
    p_used: float
    t_nodes: np.ndarray
    mu_values: np.ndarray
    slacks: np.ndarray
    min_slack: float
    passed: bool
    local_powers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return {"p_used": self.p_used, "min_slack": self.min_slack,
                "passed": self.passed,
                "t_nodes": self.t_nodes.tolist(),
                "mu_values": self.mu_values.tolist(),
                "slacks": self.slacks.tolist(),
                "local_powers": {f"{t:g}": v for t, v in self.local_powers.items()},
                **{f"note_{k}": v for k, v in self.notes.items()}}


def lambda1(system):
    """Best constant in energy <= (1/lambda1) stiffness on the Galerkin space.

    The energy matrix is B - m m^T / mu(K).  The stiffness A vanishes
    exactly on constants, and the energy of a constant is always <= 0 (it
    equals -<1,1>_P); the supremum of energy/stiffness therefore maximizes
    over the constant component first, which replaces the non-constant energy
    block by its Schur complement.  Returns (lambda1, lambda1_restricted,
    note); +inf when no discretized field has positive energy.
    """
    energy = system.B - np.outer(system.m, system.m) / system.muK
    A_nc = system.A[1:, 1:]
    E_nc = energy[1:, 1:]
    e0 = energy[1:, 0]
    E00 = energy[0, 0]
    note = ""
    if E00 < -1e-14 * max(1.0, abs(E00)):
        E_eff = E_nc - np.outer(e0, e0) / E00
    else:
        E_eff = E_nc
        note = "constant-direction energy ~ 0; Schur correction skipped"
    try:
        scipy.linalg.cholesky(A_nc, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise CoercivityFailure("stiffness block lost positive definiteness") from exc
    eigs = scipy.linalg.eigh(0.5 * (E_eff + E_eff.T), A_nc, eigvals_only=True)
    eigs_res = scipy.linalg.eigh(0.5 * (E_nc + E_nc.T), A_nc, eigvals_only=True)
    lam_max = float(eigs[-1])
    lam_max_res = float(eigs_res[-1])
    lam1 = np.inf if lam_max <= 1e-13 else 1.0 / lam_max
    lam1_res = np.inf if lam_max_res <= 1e-13 else 1.0 / lam_max_res
    if not np.isfinite(lam1):
        note = ("energy form nonpositive on the discretized space; "
                "the inequality holds trivially")
    return lam1, lam1_res, note


def coercivity_constant(system):
    """C = smallest eigenvalue of the pencil (G, S); positive iff coercive."""
    eigs = scipy.linalg.eigh(system.G, system.S, eigvals_only=True)
    return float(eigs[0])


def coercivity_report(system, deltas=(1.0, 0.1, 0.01, 0.001), seed=7):
    """Coercivity constant plus the square-root stability scaling audit.

    On the family rho_delta = delta * rho_0 the deficit is delta^2 <rho0,rho0>_P
    and the H^1 norm is delta ||rho0||, so log ||rho_delta|| against
    log(deficit) has slope exactly 1/2; the content is the constant 1/sqrt(C)
    bounding norm / sqrt(deficit) from above.
    """
    C = coercivity_constant(system)
    rng = np.random.default_rng(seed)
    c0 = random_coefficients(rng, system.dim)
    deficits, norms = [], []
    for d in deltas:
        c = d * c0
        deficits.append(float(c @ system.G @ c))
        norms.append(float(np.sqrt(c @ system.S @ c)))
    deficits = np.array(deficits)
    norms = np.array(norms)
    slope = np.polyfit(np.log(deficits), np.log(norms), 1)[0]
    ratio = norms / np.sqrt(deficits)
    return {"C": C, "stability_constant": 1.0 / np.sqrt(C),
            "slope": float(slope),
            "max_norm_over_sqrt_deficit": float(ratio.max()),
            "bound_holds": bool(ratio.max() <= 1.0 / np.sqrt(C) * (1 + 1e-12))}


def random_coefficients(rng, dim, decay=2.0):
    """Coefficient vector with 1/(1+k^decay) falloff (smooth random field)."""
    c = rng.standard_normal(dim)
    for k in range(1, (dim - 1) // 2 + 1):
        w = 1.0 / (1.0 + float(k) ** decay)
        c[2 * k - 1] *= w
        if 2 * k < dim:
            c[2 * k] *= w
    return c


def interpolation_constant(system, sample_size=1000, seed=11):
    """Empirical sup of ||rho||_{L2}^2 / (<rho,rho>_P^{1/2} ||rho||_{H1}).

    All three quantities are quadratic/linear in the coefficient vector, so
    the scan runs on the assembled matrices.  The ratio is 0-homogeneous in
    rho; finiteness and stability under sample growth is the pass criterion.
    ``sample_size`` may also be a sequence of sizes: one seeded scan of the
    largest size then returns the sup over each prefix, one per size, equal
    to separate scans of those sizes.
    """
    sizes = [int(n) for n in np.atleast_1d(sample_size)]
    if min(sizes) < 0:
        raise ValueError("sample_size must be >= 0")
    rng = np.random.default_rng(seed)
    constant = np.zeros(system.dim)
    constant[0] = 1.0
    worst, prefix = 0.0, []
    for i in range(max(sizes) + 1):
        c = constant if i == 0 else random_coefficients(rng, system.dim)
        l2sq = c @ system.mass @ c
        P = c @ system.G @ c
        h1 = np.sqrt(c @ system.S @ c)
        if P > 0 and h1 != 0:
            worst = max(worst, l2sq / (np.sqrt(P) * h1))
        prefix.append(float(worst))
    sups = tuple(prefix[n] for n in sizes)
    return sups if np.ndim(sample_size) else sups[0]


def bm_check(bodyK, bodyL, u, p, t_nodes=21, Q=DEFAULT_Q, local_probe=False,
             N=DEFAULT_N):
    """Slack of the p-power concavity along the Minkowski segment K -> L."""
    if p <= 0:
        raise ValueError("p must be positive")
    t_nodes = np.linspace(0.0, 1.0, t_nodes) if np.isscalar(t_nodes) else np.asarray(t_nodes)
    muK = interior_integral(bodyK, u, 1.0, Q=Q)
    muL = interior_integral(bodyL, u, 1.0, Q=Q)
    mus, slacks = [], []
    for t in t_nodes:
        body_t = minkowski_combine(bodyK, bodyL, float(t))
        mu_t = interior_integral(body_t, u, 1.0, Q=Q)
        mus.append(mu_t)
        slacks.append(mu_t**p - (1.0 - t) * muK**p - t * muL**p)
    mus = np.array(mus)
    slacks = np.array(slacks)
    local_powers = {}
    notes = {}
    if local_probe:
        from .pde import concavity_power

        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            body_t = minkowski_combine(bodyK, bodyL, t)
            local_powers[t] = concavity_power(body_t, u, N=N, Q=Q)
        p_min_local = min(local_powers.values())
        if p > p_min_local:
            notes["local_global"] = (
                f"p = {p:.6g} exceeds min local power {p_min_local:.6g}; "
                "a negative slack along this segment would be legitimate")
    return BMReport(p_used=float(p), t_nodes=t_nodes, mu_values=mus, slacks=slacks,
                    min_slack=float(slacks.min()),
                    passed=bool(slacks.min() >= -1e-9),
                    local_powers=local_powers, notes=notes)


def local_concavity_fd(body, u, f, p, step=1e-3, Q=DEFAULT_Q):
    """Central second difference of t -> mu([h + t f])^p at t = 0.

    p = 0 is the log-concavity limit and tests log mu instead.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")

    def g(t):
        body_t = wulff_perturb(body, f, t) if t else body
        mu = interior_integral(body_t, u, 1.0, Q=Q)
        return np.log(mu) if p == 0 else mu**p

    return float((g(step) - 2.0 * g(0.0) + g(-step)) / step**2)


def reformulation_check(body, u, N=DEFAULT_N, Q=DEFAULT_Q, dead_zone=1e-8):
    """Sign test p >= 1/2  <=>  <rho_bar, <grad u, x>>_I + int <grad u, x> dmu >= 0.

    Also verifies the intermediate identity
    int_dK h dmu - int_dK rho_bar dmu = <rho_bar, <grad u, x>>_I.
    Requires an origin-symmetric body and an even potential (the conjecture's
    hypotheses; n = 2 makes the threshold 1/2).
    """
    if not body.is_even:
        raise ValueError("reformulation check requires an origin-symmetric body")
    if not u.is_even:
        raise ValueError("reformulation check requires an even potential")
    rep = solve_report(body, u, N=N, Q=Q)
    rho_bar = rep["rho_bar"]
    moment = radial_moment_field(u)
    interaction = form_I(body, u, rho_bar, moment, Q=Q)
    moment_int = interior_integral(body, u, moment, Q=Q)
    lhs_identity = (boundary_integral(body, u, body.values)
                    - boundary_integral(body, u, rho_bar.values))
    identity_scale = max(1.0, abs(lhs_identity), abs(interaction))
    identity_residual = abs(lhs_identity - interaction)
    quantity = interaction + moment_int
    p = rep["p"]
    q_scale = max(1.0, abs(moment_int))
    if abs(p - 0.5) <= dead_zone or abs(quantity) <= dead_zone * q_scale:
        sign_consistent = True
    else:
        sign_consistent = (p - 0.5 > 0) == (quantity > 0)
    return {
        "p": p,
        "interaction": interaction,
        "moment_integral": moment_int,
        "quantity": quantity,
        "identity_residual": identity_residual,
        "identity_scale": identity_scale,
        "identity_passed": bool(identity_residual <= 1e-8 * identity_scale),
        "sign_consistent": bool(sign_consistent),
        "passed": bool(sign_consistent and identity_residual <= 1e-8 * identity_scale),
    }


def pinching_bounds(body, u, N=DEFAULT_N, Q=DEFAULT_Q):
    """Moment bound M <= 2 k2/k1, the estimate 1/p <= 2 + M, and p >= 1/(2(r+1)).

    M = (1/mu(K)) int_K <(del^2 u)^{-1} grad u, grad u> dmu (n = 2 throughout).
    """
    if u.pinching is None:
        raise PinchingUndeclared(
            "pinching bounds need declared constants k1 <= k2 on the potential")
    if not body.is_even:
        raise ValueError("pinching bounds require an origin-symmetric body")
    if not u.is_even:
        raise ValueError("pinching bounds require an even potential")
    k1, k2 = u.pinching
    r = k2 / k1
    pts, wts = interior_nodes(body, Q)
    flat = pts.reshape(-1, 2)
    wmu = (wts * u.weight(pts)).reshape(-1)
    g = u.grad(flat)
    Hinv = _inv_2x2(u.hess(flat))
    muK = float(np.sum(wmu))
    moment = float(np.sum(wmu * np.einsum("ijk,ik,ij->i", Hinv, g, g))) / muK
    p = solve_report(body, u, N=N, Q=Q)["p"]
    tol = 1e-9
    checks = {
        "moment_bound": moment <= 2.0 * r + tol * max(1.0, 2.0 * r),
        "inverse_power_bound": 1.0 / p <= 2.0 + moment + tol * max(1.0, 2.0 + moment),
        "power_lower_bound": p >= 1.0 / (2.0 * (r + 1.0)) - tol,
    }
    return {
        "k1": k1, "k2": k2, "r": r,
        "moment": moment, "p": p,
        "moment_limit": 2.0 * r,
        "power_floor": 1.0 / (2.0 * (r + 1.0)),
        **{k: bool(v) for k, v in checks.items()},
        "passed": bool(all(checks.values())),
    }
