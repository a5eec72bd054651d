"""The acceptance suite: every quantitative claim, at its pinned tolerance.

Each criterion is declared once, by ``@_criterion(id, name, time budget)``.
To add one, write a settings tuple (resolved to bodies and potentials by
``_cases``) and a row function that checks one case and returns ``(passed,
row)``, or, when the details hold more than rows, a plain body that takes no
arguments and returns ``(passed, details)``.  ``CRITERIA`` holds ``(id,
run)`` in definition order, where ``run()`` returns the record

    {"id", "name", "passed": bool, "elapsed": seconds, "time_limit": s or None,
     "details": {...}}

and ``run_all`` executes them in that order.  Every criterion works at the
module's fixed resolution ``M``, ``Q``, ``N`` (criterion 11 doubles M and Q).
Oracles are closed forms or independent numerical routes computed inside the
checks; nothing is tuned to the implementation under test.

The CLI commands call the checks of criteria 1, 2, 4a, 5a, 5b and 6 (``disk_scan``
and the ``*_check`` functions, each against one tolerance constant below).

Two sub-checks are knowingly red and kept that way on purpose (see the
``note`` fields in their details): the scaling-family "equality witnesses"
(criterion 4b) and the homothety-flow linearity claim (criterion 5c).  Direct
computation shows the homothety log-marginal has S''(0) = Var_{mu|K}(u) - n
and, at x0 = 0, the scaling pair's mean slack is
alpha^2 mu(K) (n - Var_{mu|K}(u)) / 2; mu|K is log-concave with potential u
on K, so both are nonzero by the varentropy bound Var_{mu|K}(u) < n.  At
x0 != 0 that law holds for phi_c = alpha (u*(grad u) + <x0, grad u>) + z, and
the witness's phi = phi_c + dphi adds BL(phi_c, dphi) + BL(dphi, dphi)/2 -
I(rho, dphi) to the slack (``forms.equality_witness``).  The translation
family does saturate the inequality and is verified as a control (4c, 5c-control).
"""

import functools
import time

import numpy as np

from .analysis import (
    bm_check,
    coercivity_constant,
    coercivity_report,
    interpolation_constant,
    lambda1,
    pinching_bounds,
    reformulation_check,
)
from .flow import (
    FlowConfig,
    marginal_value,
    marginal_S,
    mean_form_from_flow,
    shape_derivatives,
)
from .forms import (
    check_mean_form,
    equality_witness,
    form_BL,
    form_I,
    form_P,
    translation_witness,
)
from .geometry import disk
from .measure import ConjugatePerturbation, QuadraticPerturbation
from .pde import assemble, concavity_power, solve_report, support_identity_check
from .quad import InteriorField, interior_integral
from .spectral import BoundaryField
from .suite import (
    random_boundary_field,
    random_interior_field,
    standard_bodies,
    standard_potentials,
)

__all__ = ["run_all", "CRITERIA"]

RESIDUAL_TOL = 1e-7  # strong residual of the Galerkin solve
ORACLE_TOL = 1e-7  # |p - disk_power_oracle(R)| on Gaussian disks
CONCAVITY_TOL = 1e-7  # largest centred second difference of S(t)
FD1_TOL, FD2_TOL = 1e-6, 1e-4  # relative errors of I'(0), I''(0) vs finite differences
SLOPE_TOL = 1e-12  # |stability slope - 1/2|

M, Q, N = 256, 32, 16  # boundary grid, quadrature order and Galerkin modes of the criteria
PAIRS, SEED = 200, 42  # random pairs per configuration of criterion 4a, and their seed
SCAN_RADII = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)  # the Gaussian disks of criterion 2

CRITERIA = []  # (id, callable returning the record), in definition order


def _criterion(cid, name, limit, cases=None):
    """Declare criterion ``cid``: time its check into a record.

    With ``cases``, a callable returning the case table (run inside the timed
    region), the check takes one case and returns (passed, row); the record
    passes iff every row does, with details {"rows": rows} in case order.
    Without, the check takes nothing and returns (passed, details).
    """
    def register(check):
        def table():
            results = [check(*case) for case in cases()]
            if not results:
                raise ValueError(f"criterion {cid} has an empty case table")
            return all(ok for ok, _ in results), {"rows": [row for _, row in results]}

        body = check if cases is None else table

        @functools.wraps(check)
        def run():
            started = time.perf_counter()
            passed, details = body()
            return {"id": cid, "name": name, "passed": bool(passed),
                    "elapsed": time.perf_counter() - started, "time_limit": limit,
                    "details": details}
        CRITERIA.append((cid, run))
        return run
    return register


def _exceeds(label, value, tol):
    """[failure message] unless value <= tol (a NaN value fails), else []."""
    if value <= tol:
        return []
    mantissa, exponent = f"{tol:.0e}".split("e")
    return [f"{label} {value:.3e} > {mantissa}e{int(exponent)}"]


def disk_power_oracle(R):
    """Closed form p(R) = 1 - (1/R - R)(e^{R^2/2} - 1)/R for the Gaussian disk."""
    return 1.0 - (1.0 / R - R) * (np.exp(R * R / 2.0) - 1.0) / R


def residual_check(rep):
    """Failures of a ``solve_report``: strong residual above RESIDUAL_TOL."""
    return _exceeds("strong residual", rep["strong_residual"], RESIDUAL_TOL)


def disk_scan(u, radii, M, N, Q):
    """Rows (R, p, oracle) of p(u, disk(R)), and failures (Gaussian u only)."""
    gaussian = u.kind == "gaussian"
    rows, failures = [], []
    for R in radii:
        R = float(R)
        p = concavity_power(disk(R, M=M), u, N=N, Q=Q)
        oracle = disk_power_oracle(R) if gaussian else float("nan")
        rows.append((R, p, oracle))
        if gaussian:
            failures += _exceeds(f"R = {R}: |p - oracle| =", abs(p - oracle), ORACLE_TOL)
    return rows, failures


def random_pairs_check(body, u, pairs, seed, Q):
    """Worst relative mean/mult slacks over seeded random pairs, and failures."""
    rng = np.random.default_rng(seed)
    worst_mean, worst_mult = np.inf, np.inf
    failures = []
    for i in range(pairs):
        rho = random_boundary_field(rng, body.M)
        phi = random_interior_field(rng)
        rep = check_mean_form(body, u, rho, phi, Q=Q)
        worst_mean = min(worst_mean, rep.slack_mean / rep.scale)
        worst_mult = min(worst_mult, rep.slack_mult / rep.scale**2)
        if not (rep.passed_mean and rep.passed_mult):
            failures.append(f"pair {i}: mean slack {rep.slack_mean:.3e}, "
                            f"mult slack {rep.slack_mult:.3e}")
    return worst_mean, worst_mult, failures


def concavity_check(body, u, cfg, Q):
    """The ``marginal_S`` table and its failures: S(t) concave to CONCAVITY_TOL."""
    tab = marginal_S(body, u, cfg, Q=Q)
    return tab, _exceeds("S(t) second difference", tab["max_second_difference"], CONCAVITY_TOL)


def shape_derivative_check(body, u, f, psi, Q):
    """``shape_derivatives`` plus I'(0), I''(0) errors against finite differences."""
    d = shape_derivatives(body, u, f, psi, Q=Q)
    h1, h2 = 1e-4, 1e-3
    fd1 = (marginal_value(body, u, f, psi, h1, Q)
           - marginal_value(body, u, f, psi, -h1, Q)) / (2 * h1)
    fd2 = (marginal_value(body, u, f, psi, h2, Q) - 2 * d["I0"]
           + marginal_value(body, u, f, psi, -h2, Q)) / h2**2
    e1 = abs(fd1 - d["I1"]) / max(1.0, abs(d["I1"]))
    e2 = abs(fd2 - d["I2"]) / max(1.0, abs(d["I2"]))
    failures = (_exceeds("I'(0) finite-difference mismatch", e1, FD1_TOL)
                + _exceeds("I''(0) finite-difference mismatch", e2, FD2_TOL))
    return {**d, "I1_fd_error": e1, "I2_fd_error": e2}, failures


def spectral_check(system, seed):
    """``lambda1``, ``coercivity_report`` and their failures (criterion 6)."""
    lam = lambda1(system)
    stab = coercivity_report(system, seed=seed)
    failures = []
    if not (lam[0] > 1.0 or np.isinf(lam[0])):
        failures.append(f"lambda1 = {lam[0]:.6g} <= 1")
    if not stab["C"] > 0:
        failures.append(f"coercivity constant {stab['C']:.6g} <= 0")
    if not abs(stab["slope"] - 0.5) <= SLOPE_TOL:
        failures.append(f"stability slope {stab['slope']} != 0.5")
    if not stab["bound_holds"]:
        failures.append("deficit bound 1/sqrt(C) violated on the delta family")
    return lam, stab, failures


@_criterion("1", "gaussian unit disk solve", 1.0)
def criterion_1():
    """Gaussian unit disk: p = 1, rho_bar = e^{1/2} - 1, strong residual."""
    rep = solve_report(disk(1.0, M=M), standard_potentials()["gaussian"], N=N, Q=Q)
    rho_const = np.exp(0.5) - 1.0
    p_err = abs(rep["p"] - 1.0)
    rho_err = float(np.abs(rep["rho_bar"].values - rho_const).max())
    ok = p_err <= 1e-8 and rho_err <= 1e-8 and not residual_check(rep)
    return ok, {"p": rep["p"], "p_error": p_err,
                "rho_bar_error": rho_err, "rho_bar_target": rho_const,
                "strong_residual": rep["strong_residual"]}


@_criterion("2", "gaussian disk radius scan", 1.0)
def criterion_2():
    """Gaussian disk scan against the closed-form power; p >= 1/2 throughout."""
    g = standard_potentials()["gaussian"]
    rows, failures = disk_scan(g, SCAN_RADII, M, N, Q)
    ok = not failures and all(p >= 0.5 for _, p, _ in rows)
    rows = [{"R": R, "p": p, "oracle": oracle, "error": abs(p - oracle)}
            for R, p, oracle in rows]
    return ok, {"rows": rows}


_GENERIC = ("disk1", "ellipse21", "blob")
_SYMMETRIC = ("disk1", "ellipse21", "peanut")  # the conjecture's hypotheses


def _cases(settings):
    """(body name, potential name, body, u, *rest) for each (body name, potential name, *rest)."""
    bodies, pots = standard_bodies(M), standard_potentials()
    return [(b, p, bodies[b], pots[p], *rest) for b, p, *rest in settings]


def _matrix(body_names):
    """(body name, potential name, body, u) for body_names x the even potentials."""
    return _cases((b, p) for b in body_names for p in ("gaussian", "quad14", "quartic"))


@_criterion("3", "divergence identity on the test matrix", 1.0, lambda: _matrix(_GENERIC))
def criterion_3(bname, pname, body, u):
    """Divergence identity int h dmu = 2 mu(K) - int <grad u, x> dmu, 9 pairs."""
    rep = support_identity_check(body, u, Q=Q)
    rel = rep["integral_residual"] / rep["integral_scale"]
    return rel <= 1e-9, {"body": bname, "potential": pname, "relative_residual": rel}


_SUITE_CONFIGS = (("disk1", "gaussian"), ("ellipse21", "quad14"), ("blob", "quartic"))


@_criterion("4a", "inequality suites on random pairs", 3.0)
def criterion_4a():
    """Mean and multiplicative inequalities on seeded random pairs."""
    ok = True
    per_config = {}
    for bname, pname, body, u in _cases(_SUITE_CONFIGS):
        wm, wx, failures = random_pairs_check(body, u, PAIRS, SEED, Q)
        ok = ok and not failures
        per_config[f"{bname}+{pname}"] = {"min_mean_slack": wm, "min_mult_slack": wx}
    worst_mean = min(c["min_mean_slack"] for c in per_config.values())
    worst_mult = min(c["min_mult_slack"] for c in per_config.values())
    return ok, {"pairs_per_config": PAIRS, "seed": SEED,
                "min_relative_mean_slack": worst_mean,
                "min_relative_mult_slack": worst_mult, "per_config": per_config}


_WITNESS_SETTINGS = (
    ("disk1", "gaussian", 1.0, (0.0, 0.0), 0.0),
    ("ellipse21", "quad12", 0.7, (0.1, 0.0), 3.0),
    ("disk1", "quartic", 0.5, (0.0, 0.2), -1.0),
    ("blob", "gaussian", 0.3, (-0.1, 0.1), 0.5),
    ("ellipse21", "gaussian", 0.0, (0.2, 0.1), 2.0),
)


@_criterion("4b", "scaling-family equality witnesses (knowingly red)", 1.0)
def criterion_4b():
    """Scaling-family witnesses: claimed |mean slack| <= 1e-8 * scale.

    Knowingly red for alpha > 0: the claim fails on direct computation.  The
    measured slacks are reported and the translation control (4c) shows the
    pipeline resolves genuine equality at 1e-12 scale.
    """
    rows = []
    for bname, pname, body, u, alpha, x0, z in _cases(_WITNESS_SETTINGS):
        rho, phi = equality_witness(body, u, alpha, x0, z)
        rep = check_mean_form(body, u, rho, phi, Q=Q)
        rel = abs(rep.slack_mean) / rep.scale
        rows.append({"body": bname, "potential": pname, "alpha": alpha,
                     "x0": list(x0), "z": z, "relative_mean_slack": rel,
                     "P": rep.P, "BL": rep.BL, "I": rep.I})
    note = ("scaling witnesses with alpha > 0 do not saturate the mean form; "
            "slack is alpha^2 * (2 - Var_{mu|K}(u + gauge terms)) > 0 on generic "
            "data -- see the translation control in 4c")
    return all(r["relative_mean_slack"] <= 1e-8 for r in rows), {"rows": rows, "note": note}


_TRANSLATION_SETTINGS = (("disk1", "gaussian", (1.0, 0.0), 0.0),
                         ("ellipse21", "quad14", (0.3, -0.2), 1.5),
                         ("blob", "quartic", (-0.2, 0.1), -0.7),
                         ("peanut", "quad_mixed", (0.15, 0.25), 0.0),
                         ("disk05", "gaussian", (0.0, 0.4), 2.0))


@_criterion("4c", "translation-family equality control", 1.0,
            lambda: _cases(_TRANSLATION_SETTINGS))
def criterion_4c(bname, pname, body, u, x0, z):
    """Translation-family control: exact equality P = BL = I."""
    rho, phi = translation_witness(body, u, x0, z)
    rep = check_mean_form(body, u, rho, phi, Q=Q)
    rel = abs(rep.slack_mean) / rep.scale
    rel_mult = abs(rep.slack_mult) / rep.scale**2
    return rel <= 1e-8 and rel_mult <= 1e-8, {
        "body": bname, "potential": pname, "x0": list(x0), "z": z,
        "relative_mean_slack": rel, "relative_mult_slack": rel_mult}


def _flow_matrix():
    f = BoundaryField.from_function(lambda t: np.cos(2 * t) + 0.1 * np.sin(3 * t), M)
    configs = []
    for bname, pname, body, u in _matrix(_GENERIC):
        psi_q = QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05], c=0.2)
        psi_c = ConjugatePerturbation(u, 0.4)
        configs.append((f"{bname}+{pname}+quadratic", body, u, f, psi_q))
        configs.append((f"{bname}+{pname}+conjugate", body, u, f, psi_c))
    return configs


@_criterion("5a", "log-marginal concavity over the flow matrix", 2.5, _flow_matrix)
def criterion_5a(name, body, u, f, psi):
    """Concavity of the log-marginal: centered second differences <= 1e-7."""
    tab, failures = concavity_check(body, u, FlowConfig(f=f, psi=psi, eps=0.08, n_t=21), Q)
    return not failures, {"config": name, "eps": tab["eps"],
                          "max_second_difference": tab["max_second_difference"]}


@_criterion("5b", "shape derivatives vs finite-difference oracles", 1.0, _flow_matrix)
def criterion_5b(name, body, u, f, psi):
    """I'(0) and I''(0) against central finite differences of the marginal."""
    d, failures = shape_derivative_check(body, u, f, psi, Q)
    return not failures, {"config": name, "I1_rel_error": d["I1_fd_error"],
                          "I2_rel_error": d["I2_fd_error"]}


@_criterion("5c", "homothety flow linearity (knowingly red)", 1.0)
def criterion_5c():
    """Homothety flow linearity claim |S''(0)| <= 1e-8 (knowingly red).

    S''(0) for f = h, psi = u* equals Var_{mu|K}(u) - n, which is about
    -1.979 on the Gaussian unit disk.  The genuinely linear flow is the
    translation one, checked as the control below.
    """
    [(_, _, body, u)] = _cases([("disk1", "gaussian")])
    psi = ConjugatePerturbation(u, 1.0)
    d = shape_derivatives(body, u, body, psi, Q=Q)  # f = h
    # independent oracle: Var_{mu|K}(u) - 2
    uval = InteriorField(lambda p: u.value(p))
    usq = InteriorField(lambda p: u.value(p) ** 2)
    muK, int_u, int_usq = (interior_integral(body, u, g, Q=Q) for g in (1.0, uval, usq))
    var = int_usq / muK - (int_u / muK) ** 2
    return abs(d["S2"]) <= 1e-8, {
        "S2": d["S2"], "variance_oracle": var - 2.0,
        "oracle_agreement": abs(d["S2"] - (var - 2.0)),
        "note": "claimed linear; actual S''(0) = Var(u) - n != 0"}


@_criterion("5c-control", "translation flow linearity control", 1.0,
            lambda: _cases(_SUITE_CONFIGS))
def criterion_5c_control(bname, pname, body, u):
    """Translation flow is exactly linear: |S''(0)| at rounding level."""
    x0 = np.array([0.3, -0.2])
    f = BoundaryField(body.normals_grid @ x0)
    psi = QuadraticPerturbation(b=x0, c=-0.5)
    d = shape_derivatives(body, u, f, psi, Q=Q)
    return abs(d["S2"]) <= 1e-8, {"config": f"{bname}+{pname}", "S2": d["S2"]}


@_criterion("5d", "flow vs forms cross-module identity", 1.0, _flow_matrix)
def criterion_5d(name, body, u, f, psi):
    """Cross-module identity I(0) S''(0) = -(P + BL - 2 I)."""
    rep = mean_form_from_flow(body, u, f, psi, Q=Q)
    return rep["passed"], {"config": name,
                           "relative_mismatch": rep["mismatch"] / rep["scale"]}


_SPECTRAL_CONFIGS = (("disk1", "gaussian"), ("disk05", "gaussian"),
                     ("ellipse21", "gaussian"), ("ellipse21", "quad14"),
                     ("peanut", "quartic"))


@_criterion("6", "spectral constants and stability scaling", 1.0)
def criterion_6():
    """Spectral constants: coercivity, lambda1 > 1 (or inf), stability scaling.

    The +-1e-6 stability of C under N -> N+4 is asserted on the disk configs,
    where the pencil minimizer is a single harmonic and the value is exact
    (closed form C = R^3/(R^2+1) for the Gaussian disk).  On bodies with
    non-constant curvature the continuum infimum localizes at high frequency
    toward min_theta r(theta), so the discretized C keeps drifting downward
    with N; the drift is reported, not asserted away.
    """
    rows = []
    ok = True
    for bname, pname, body, u in _cases(_SPECTRAL_CONFIGS):
        (lam, _, note), stab, failures = spectral_check(assemble(body, u, N=N, Q=Q), 7)
        C1 = stab["C"]
        C2 = coercivity_constant(assemble(body, u, N=N + 4, Q=Q))
        drift = abs(C1 - C2) / max(1.0, abs(C1))
        c_stable = drift <= 1e-6
        ok = ok and not failures and (c_stable or not bname.startswith("disk"))
        rows.append({"config": f"{bname}+{pname}", "lambda1": lam,
                     "lambda1_note": note, "C": C1, "C_refined": C2,
                     "C_drift": drift, "C_stable_at_1e-6": c_stable,
                     "stability_constant": stab["stability_constant"],
                     "slope": stab["slope"]})
    # closed forms for the Gaussian disk: lambda1 = 1/(1 - R^2) (R < 1, the
    # k = 1 harmonic) and C = R^3/(R^2 + 1) (pencil minimum, also at k = 1)
    by_config = {row["config"]: row for row in rows}
    lam05 = by_config["disk05+gaussian"]["lambda1"]
    lam_oracle = 1.0 / (1.0 - 0.25)
    C_disk1 = by_config["disk1+gaussian"]["C"]
    C_disk05 = by_config["disk05+gaussian"]["C"]
    oracle_ok = (abs(lam05 - lam_oracle) <= 1e-9
                 and abs(C_disk1 - 0.5) <= 1e-9
                 and abs(C_disk05 - 0.5**3 / 1.25) <= 1e-9)
    ok = ok and oracle_ok
    return ok, {"rows": rows, "lambda1_disk05": lam05,
                "lambda1_disk05_oracle": lam_oracle,
                "C_disk1": C_disk1, "C_disk1_oracle": 0.5,
                "C_disk05": C_disk05, "C_disk05_oracle": 0.5**3 / 1.25}


@_criterion("7", "even symmetry of the minimizer", 1.0, lambda: _matrix(_SYMMETRIC))
def criterion_7(bname, pname, body, u):
    """Symmetry: odd harmonics of rho_bar vanish; even-only basis matches p."""
    rep = solve_report(body, u, N=N, Q=Q)
    coeffs = rep["rho_bar"].galerkin_coeffs
    odd = [abs(coeffs[2 * k - 1]) for k in range(1, N + 1, 2)]
    odd += [abs(coeffs[2 * k]) for k in range(1, N + 1, 2)]
    odd_max = float(max(odd))
    p_even = concavity_power(body, u, N=N, Q=Q, even_only=True)
    dp = abs(p_even - rep["p"])
    return odd_max <= 1e-10 and dp <= 1e-9, {
        "config": f"{bname}+{pname}", "max_odd_coefficient": odd_max, "p_even_minus_p": dp}


def _reformulation_cases():
    g = standard_potentials()["gaussian"]
    return ([(f"{b}+{p}", body, u) for b, p, body, u in _matrix(_SYMMETRIC)]
            + [(f"disk({R})+gaussian", disk(R, M=M), g) for R in (0.25, 0.5, 1.0, 2.0, 3.0)])


@_criterion("8", "dimensional reformulation checks", 1.0, _reformulation_cases)
def criterion_8(name, body, u):
    """Reformulation: intermediate identity and sign biconditional."""
    rep = reformulation_check(body, u, N=N, Q=Q)
    return rep["passed"], {
        "config": name,
        "identity_relative_residual": rep["identity_residual"] / rep["identity_scale"],
        "p": rep["p"], "quantity": rep["quantity"], "sign_consistent": rep["sign_consistent"]}


_PINCHED_CONFIGS = (("disk1", "gaussian"), ("ellipse21", "gaussian"),
                    ("peanut", "gaussian"), ("disk1", "quad14"),
                    ("ellipse21", "quad14"), ("peanut", "quad_mixed"))


@_criterion("9", "pinched-Hessian moment and power bounds", 1.0,
            lambda: _cases(_PINCHED_CONFIGS))
def criterion_9(bname, pname, body, u):
    """Moment and power bounds under Hessian pinching (r = k2/k1).

    The moments, 0.46-1.37, sit far below their limits 2-8: only a gross change shows.
    """
    rep = pinching_bounds(body, u, N=N, Q=Q)
    return rep["passed"], {"config": f"{bname}+{pname}", "r": rep["r"],
                           "moment": rep["moment"], "moment_limit": rep["moment_limit"],
                           "p": rep["p"], "power_floor": rep["power_floor"],
                           "passed": rep["passed"]}


_BM_PAIRS = (("disk05", "disk15"), ("ellipse21", "disk1"), ("ellipse21", "ellipse12"))


def _bm_cases():
    bodies, g = standard_bodies(M), standard_potentials()["gaussian"]
    return [(f"{k},{l}", bodies[k], bodies[l], g) for k, l in _BM_PAIRS]


@_criterion("10", "Brunn-Minkowski segments at p = 1/2", 1.0, _bm_cases)
def criterion_10(pair, K, L, g):
    """Direct 1/2-power concavity along Minkowski segments, Gaussian measure.

    End slacks are 0 by construction; inside, a change must clear slacks of 0.0097-0.031 to show.
    """
    rep = bm_check(K, L, g, p=0.5, t_nodes=21, Q=Q)
    return rep.passed, {"pair": pair, "min_slack": rep.min_slack}


def _reported_scalars(M, Q):
    bodies, pots = standard_bodies(M), standard_potentials()
    g, q14, ell = pots["gaussian"], pots["quad14"], bodies["ellipse21"]
    rho = BoundaryField.from_function(lambda t: np.cos(2 * t) + 0.3 * np.sin(t), M)
    phi = random_interior_field(np.random.default_rng(3))
    f = BoundaryField.from_function(lambda t: np.cos(2 * t), M)
    psi = QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
    return {
        "p_disk1": concavity_power(bodies["disk1"], g, N=N, Q=Q),
        "p_ellipse_quad": concavity_power(ell, q14, N=N, Q=Q),
        "form_P": form_P(ell, q14, rho, rho, Q=Q),
        "form_BL": form_BL(ell, q14, phi, phi, Q=Q),
        "form_I": form_I(ell, q14, rho, phi, Q=Q),
        "lambda1_disk05": lambda1(assemble(bodies["disk05"], g, N=N, Q=Q))[0],
        "coercivity_ellipse": coercivity_constant(assemble(ell, g, N=N, Q=Q)),
        "interpolation_disk1": interpolation_constant(assemble(bodies["disk1"], g, N=N, Q=Q),
                                                      sample_size=200),
        "flow_S2": shape_derivatives(ell, q14, f, psi, Q=Q)["S2"],
        "bm_min_slack": bm_check(bodies["disk05"], bodies["disk15"], g, p=0.5, t_nodes=11,
                                 Q=Q).min_slack,
        "reformulation_quantity": reformulation_check(ell, g, N=N, Q=Q)["quantity"],
        "moment_ellipse_quad": pinching_bounds(ell, q14, N=N, Q=Q)["moment"],
    }


@_criterion("11", "quadrature doubling gate", None)
def criterion_11():
    """Quadrature gate: doubling M and Q moves no reported scalar by 1e-9."""
    base = _reported_scalars(M, Q)
    fine = _reported_scalars(2 * M, 2 * Q)
    rows = []
    for key, v in base.items():
        rel = abs(fine[key] - v) / max(1.0, abs(v))
        rows.append({"scalar": key, "coarse": v, "fine": fine[key],
                     "relative_change": rel})
    return all(r["relative_change"] <= 1e-9 for r in rows), {"rows": rows}


KNOWN_RED = {"4b", "5c"}


def run_all(ids=None):
    """Run the acceptance criteria (optionally a subset of ids) in order."""
    return [fn() for cid, fn in CRITERIA if ids is None or cid in ids]
