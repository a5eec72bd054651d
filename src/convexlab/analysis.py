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
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import CoercivityFailure, InvalidInput, PinchingUndeclared
from .forms import form_I
from .flow import marginal_value
from .geometry import minkowski_combine
from .measure import _hgg
from .pde import (DEFAULT_N, _power, assemble, concavity_power, radial_moment_field,
                  solve_rho_bar)
from .quad import DEFAULT_Q, _context, _mu, boundary_integral, interior_integral

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

STABILITY_DELTAS = (1.0, 0.1, 0.01, 0.001)  # scales delta of coercivity_report's family
CONCAVITY_FD_STEP = 1e-3  # t step of local_concavity_fd
SIGN_DEAD_ZONE = 1e-8  # reformulation_check: |p - 1/2| or relative |quantity| taken as 0


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
    import scipy.linalg  # here, not at module level: forms-check and flow never load it
    try:  # each eigh factors A_nc and fails unless it is positive definite
        eigs = scipy.linalg.eigh(0.5 * (E_eff + E_eff.T), A_nc, eigvals_only=True)
        eigs_res = scipy.linalg.eigh(0.5 * (E_nc + E_nc.T), A_nc, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise CoercivityFailure("stiffness block lost positive definiteness") from exc
    lam_max = float(eigs[-1])
    lam_max_res = float(eigs_res[-1])
    lam1 = np.inf if lam_max <= 1e-13 else 1.0 / lam_max
    lam1_res = np.inf if lam_max_res <= 1e-13 else 1.0 / lam_max_res
    if not np.isfinite(lam1):
        note = ("energy form nonpositive on the discretized space; "
                "the inequality holds trivially")
    return lam1, lam1_res, note


def coercivity_constant(system):
    """C = smallest eigenvalue of the pencil (G, S); positive iff coercive (G > 0 needs u != 0)."""
    system.potential.require_strictly_convex("the coercivity constant")
    import scipy.linalg  # here, not at module level: forms-check and flow never load it
    eigs = scipy.linalg.eigh(system.G, system.S, eigvals_only=True)
    return float(eigs[0])


def coercivity_report(system, seed=7):
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
    for d in STABILITY_DELTAS:
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


@lru_cache(maxsize=16)
def _decay_weights(dim):
    """Weight 1/(1+k^2) on the pair (cos k, sin k) of the basis, 1 on e_0; read-only."""
    w = np.ones(dim)
    for k in range(1, (dim - 1) // 2 + 1):
        w[2 * k - 1:2 * k + 1] = 1.0 / (1.0 + float(k) ** 2.0)
    w.flags.writeable = False
    return w


def random_coefficients(rng, dim):
    """Coefficient vector with 1/(1+k^2) falloff (smooth random field)."""
    return rng.standard_normal(dim) * _decay_weights(dim)


_SCAN_BLOCK = 4096  # draws per block of the interpolation-constant scan


def interpolation_constant(system, sample_size=1000, seed=11):
    """Empirical sup of ||rho||_{L2}^2 / (<rho,rho>_P^{1/2} ||rho||_{H1}).

    All three quantities are quadratic/linear in the coefficient vector, so
    the scan runs on the assembled matrices.  The ratio is 0-homogeneous in
    rho; finiteness and stability under sample growth is the pass criterion.
    ``sample_size`` may also be a sequence of sizes: one seeded scan of the
    largest size then returns the sup over each prefix, one per size, equal
    to separate scans of those sizes.

    After rho = 1 the fields come in blocks of ``_SCAN_BLOCK`` normal draws,
    the stream of one ``random_coefficients`` call per field.  Each form is a
    stack of 1 x d products (c A) c, which numpy runs row by row through the
    gemv and dot kernels of ``c @ A @ c``: bit-identical to a per-field loop,
    where one ``(C @ A * C).sum(1)`` would take gemm and round apart.
    """
    if not all(float(n).is_integer() for n in np.atleast_1d(sample_size)):
        raise InvalidInput(f"sample_size must be an integer, got {sample_size!r}")
    sizes = [int(n) for n in np.atleast_1d(sample_size)]
    if not sizes:
        raise InvalidInput("sample_size must name at least one size")
    if min(sizes) < 0:
        raise InvalidInput("sample_size must be >= 0")
    rng = np.random.default_rng(seed)
    draws, w = max(sizes), _decay_weights(system.dim)
    blocks = (rng.standard_normal((min(_SCAN_BLOCK, draws - i), system.dim)) * w
              for i in range(0, draws, _SCAN_BLOCK))
    ratios = [np.zeros(1)]
    for C in chain([np.eye(1, system.dim)], blocks):
        l2sq, P, h1sq = (np.matmul(np.matmul(C[:, None, :], A), C[:, :, None])[:, 0, 0]
                         for A in (system.mass, system.G, system.S))
        h1 = np.sqrt(h1sq)
        with np.errstate(all="ignore"):
            ratios.append(np.where((P > 0) & (h1 != 0), l2sq / (np.sqrt(P) * h1), np.nan))
    # a skipped draw's NaN is neutral in fmax; prefix[i] is the sup over draws <= i
    prefix = np.fmax.accumulate(np.concatenate(ratios))[1:]
    sups = tuple(float(prefix[n]) for n in sizes)
    return sups if np.ndim(sample_size) else sups[0]


def bm_check(bodyK, bodyL, u, p, t_nodes=21, Q=DEFAULT_Q, local_probe=False,
             N=DEFAULT_N):
    """Slack of the p-power concavity along the Minkowski segment K -> L at t_nodes
    (a count of uniform nodes on [0, 1], or the t themselves)."""
    if not 0 < p < np.inf:  # negated, so that NaN fails too
        raise InvalidInput(f"p must be finite and positive, got {p}")
    if isinstance(t_nodes, (int, np.integer)) and t_nodes >= 1:
        t_nodes = np.linspace(0.0, 1.0, t_nodes)
    elif np.ndim(t_nodes) != 1 or not np.size(t_nodes):
        raise InvalidInput("t_nodes must be an integer >= 1 or a non-empty sequence of t, "
                           f"got {t_nodes!r}")
    t_nodes = np.asarray(t_nodes)
    muK = _mu(bodyK, u, Q)
    muL = _mu(bodyL, u, Q)
    mus, slacks = [], []
    for t in t_nodes:
        body_t = minkowski_combine(bodyK, bodyL, float(t))
        mu_t = _mu(body_t, u, Q)
        mus.append(mu_t)
        slacks.append(mu_t**p - (1.0 - t) * muK**p - t * muL**p)
    mus = np.array(mus)
    slacks = np.array(slacks)
    local_powers = {}
    notes = {}
    if local_probe:
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


def local_concavity_fd(body, u, f, p, Q=DEFAULT_Q):
    """Central second difference of t -> mu([h + t f])^p at t = 0.

    p = 0 is the log-concavity limit and tests log mu instead.
    """
    if not 0 <= p < np.inf:
        raise InvalidInput(f"p must be finite and nonnegative, got {p}")

    def g(t):
        mu = marginal_value(body, u, f, None, t, Q)
        return np.log(mu) if p == 0 else mu**p

    h = CONCAVITY_FD_STEP
    return float((g(h) - 2.0 * g(0.0) + g(-h)) / h**2)


def reformulation_check(body, u, N=DEFAULT_N, Q=DEFAULT_Q):
    """Sign test p >= 1/2  <=>  <rho_bar, <grad u, x>>_I + int <grad u, x> dmu >= 0.

    Also verifies the intermediate identity
    int_dK h dmu - int_dK rho_bar dmu = <rho_bar, <grad u, x>>_I.
    Requires an origin-symmetric body and an even potential (the conjecture's
    hypotheses; n = 2 makes the threshold 1/2).
    """
    if not body.is_even:
        raise InvalidInput("reformulation check requires an origin-symmetric body")
    if not u.is_even:
        raise InvalidInput("reformulation check requires an even potential")
    system = assemble(body, u, N=N, Q=Q)
    rho_bar = solve_rho_bar(system)
    p = _power(system, system.m @ rho_bar.galerkin_coeffs)
    moment = radial_moment_field(u)
    interaction = form_I(body, u, rho_bar, moment, Q=Q)
    moment_int = interior_integral(body, u, moment, Q=Q)
    lhs_identity = (boundary_integral(body, u, body.values)
                    - boundary_integral(body, u, rho_bar.values))
    identity_scale = max(1.0, abs(lhs_identity), abs(interaction))
    identity_residual = abs(lhs_identity - interaction)
    quantity = interaction + moment_int
    q_scale = max(1.0, abs(moment_int))
    if abs(p - 0.5) <= SIGN_DEAD_ZONE or abs(quantity) <= SIGN_DEAD_ZONE * q_scale:
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
        raise InvalidInput("pinching bounds require an origin-symmetric body")
    if not u.is_even:
        raise InvalidInput("pinching bounds require an even potential")
    k1, k2 = u.pinching
    r = k2 / k1
    c = _context(body, u, Q, bl=True)
    g = u.grad(c.flat)
    moment = float(np.sum(c.wmu * _hgg(c.hinv, g, g))) / c.muK
    p = concavity_power(body, u, N=N, Q=Q)
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
