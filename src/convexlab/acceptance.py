"""The acceptance suite: every quantitative claim, at its pinned tolerance.

Each criterion function returns a record

    {"id", "name", "passed": bool, "elapsed": seconds, "time_limit": s or None,
     "details": {...}}

and ``run_all`` executes all of them in order.  Oracles are closed forms or
independent numerical routes computed inside the checks; nothing is tuned to
the implementation under test.

The CLI commands call the checks of criteria 1, 2, 4a, 5a, 5b and 6 (``disk_scan``
and the ``*_check`` functions, each against one tolerance constant below).

Two sub-checks are knowingly red and kept that way on purpose (see the
``note`` fields in their details): the scaling-family "equality witnesses"
(criterion 4b) and the homothety-flow linearity claim (criterion 5c).  Direct
computation shows the scaling family does not saturate the mean-form
inequality; its slack for alpha > 0 equals alpha^2 (n - Var_{mu|K}(u))-type
quantities, strictly positive on generic data, and the homothety log-marginal
has S''(0) = Var_{mu|K}(u) - n != 0.  The translation family does saturate
the inequality and is verified as a control (4c, 5c-control).
"""

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
    BoundaryField,
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
from .quad import interior_integral
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


def _record(cid, name, limit, started, passed, details):
    return {"id": cid, "name": name, "passed": bool(passed),
            "elapsed": time.perf_counter() - started, "time_limit": limit,
            "details": details}


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


def criterion_1(M=256, Q=32, N=16):
    """Gaussian unit disk: p = 1, rho_bar = e^{1/2} - 1, strong residual."""
    t0 = time.perf_counter()
    rep = solve_report(disk(1.0, M=M), standard_potentials()["gaussian"], N=N, Q=Q)
    rho_const = np.exp(0.5) - 1.0
    p_err = abs(rep["p"] - 1.0)
    rho_err = float(np.abs(rep["rho_bar"].values - rho_const).max())
    details = {"p": rep["p"], "p_error": p_err,
               "rho_bar_error": rho_err, "rho_bar_target": rho_const,
               "strong_residual": rep["strong_residual"]}
    ok = p_err <= 1e-8 and rho_err <= 1e-8 and not residual_check(rep)
    return _record("1", "gaussian unit disk solve", 1.0, t0, ok, details)


def criterion_2(M=256, Q=32, N=16):
    """Gaussian disk scan against the closed-form power; p >= 1/2 throughout."""
    t0 = time.perf_counter()
    g = standard_potentials()["gaussian"]
    rows, failures = disk_scan(g, (0.25, 0.5, 1.0, 1.5, 2.0, 3.0), M, N, Q)
    ok = not failures and all(p >= 0.5 for _, p, _ in rows)
    rows = [{"R": R, "p": p, "oracle": oracle, "error": abs(p - oracle)}
            for R, p, oracle in rows]
    return _record("2", "gaussian disk radius scan", 5.0, t0, ok, {"rows": rows})


_GENERIC = ("disk1", "ellipse21", "blob")
_SYMMETRIC = ("disk1", "ellipse21", "peanut")  # the conjecture's hypotheses


def _matrix(M, body_names):
    """(body name, potential name, body, u) for body_names x the even potentials."""
    bodies, pots = standard_bodies(M), standard_potentials()
    return [(b, p, bodies[b], pots[p])
            for b in body_names for p in ("gaussian", "quad14", "quartic")]


def criterion_3(M=256, Q=32):
    """Divergence identity int h dmu = 2 mu(K) - int <grad u, x> dmu, 9 pairs."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for bname, pname, body, u in _matrix(M, _GENERIC):
        rep = support_identity_check(body, u, Q=Q)
        rel = rep["integral_residual"] / rep["integral_scale"]
        ok = ok and rel <= 1e-9
        rows.append({"body": bname, "potential": pname, "relative_residual": rel})
    return _record("3", "divergence identity on the test matrix", 5.0, t0, ok,
                   {"rows": rows})


_SUITE_CONFIGS = (("disk1", "gaussian"), ("ellipse21", "quad14"), ("blob", "quartic"))


def criterion_4a(M=256, Q=32, pairs=200, seed=42):
    """Mean and multiplicative inequalities on seeded random pairs."""
    t0 = time.perf_counter()
    bodies, pots = standard_bodies(M), standard_potentials()
    ok = True
    per_config = {}
    for bname, pname in _SUITE_CONFIGS:
        wm, wx, failures = random_pairs_check(bodies[bname], pots[pname], pairs, seed, Q)
        ok = ok and not failures
        per_config[f"{bname}+{pname}"] = {"min_mean_slack": wm, "min_mult_slack": wx}
    worst_mean = min(c["min_mean_slack"] for c in per_config.values())
    worst_mult = min(c["min_mult_slack"] for c in per_config.values())
    details = {"pairs_per_config": pairs, "seed": seed,
               "min_relative_mean_slack": worst_mean,
               "min_relative_mult_slack": worst_mult, "per_config": per_config}
    return _record("4a", "inequality suites on random pairs", 30.0, t0, ok, details)


_WITNESS_SETTINGS = (
    ("disk1", "gaussian", 1.0, (0.0, 0.0), 0.0),
    ("ellipse21", "quad12", 0.7, (0.1, 0.0), 3.0),
    ("disk1", "quartic", 0.5, (0.0, 0.2), -1.0),
    ("blob", "gaussian", 0.3, (-0.1, 0.1), 0.5),
    ("ellipse21", "gaussian", 0.0, (0.2, 0.1), 2.0),
)


def criterion_4b(M=256, Q=32):
    """Scaling-family witnesses: claimed |mean slack| <= 1e-8 * scale.

    Knowingly red for alpha > 0: the claim fails on direct computation.  The
    measured slacks are reported and the translation control (4c) shows the
    pipeline resolves genuine equality at 1e-12 scale.
    """
    t0 = time.perf_counter()
    bodies, pots = standard_bodies(M), standard_potentials()
    rows = []
    ok = True
    for bname, pname, alpha, x0, z in _WITNESS_SETTINGS:
        body, u = bodies[bname], pots[pname]
        rho, phi = equality_witness(body, u, alpha, x0, z)
        rep = check_mean_form(body, u, rho, phi, Q=Q)
        rel = abs(rep.slack_mean) / rep.scale
        rows.append({"body": bname, "potential": pname, "alpha": alpha,
                     "x0": list(x0), "z": z, "relative_mean_slack": rel,
                     "P": rep.P, "BL": rep.BL, "I": rep.I})
        ok = ok and rel <= 1e-8
    note = ("scaling witnesses with alpha > 0 do not saturate the mean form; "
            "slack is alpha^2 * (2 - Var_{mu|K}(u + gauge terms)) > 0 on generic "
            "data -- see the translation control in 4c")
    return _record("4b", "scaling-family equality witnesses (knowingly red)",
                   30.0, t0, ok, {"rows": rows, "note": note})


def criterion_4c(M=256, Q=32):
    """Translation-family control: exact equality P = BL = I."""
    t0 = time.perf_counter()
    bodies, pots = standard_bodies(M), standard_potentials()
    rows = []
    ok = True
    settings = (("disk1", "gaussian", (1.0, 0.0), 0.0),
                ("ellipse21", "quad14", (0.3, -0.2), 1.5),
                ("blob", "quartic", (-0.2, 0.1), -0.7),
                ("peanut", "quad_mixed", (0.15, 0.25), 0.0),
                ("disk05", "gaussian", (0.0, 0.4), 2.0))
    for bname, pname, x0, z in settings:
        body, u = bodies[bname], pots[pname]
        rho, phi = translation_witness(body, u, x0, z)
        rep = check_mean_form(body, u, rho, phi, Q=Q)
        rel = abs(rep.slack_mean) / rep.scale
        rel_mult = abs(rep.slack_mult) / rep.scale**2
        ok = ok and rel <= 1e-8 and rel_mult <= 1e-8
        rows.append({"body": bname, "potential": pname, "x0": list(x0), "z": z,
                     "relative_mean_slack": rel, "relative_mult_slack": rel_mult})
    return _record("4c", "translation-family equality control", 30.0, t0, ok,
                   {"rows": rows})


def _flow_matrix(M):
    f = BoundaryField.from_function(lambda t: np.cos(2 * t) + 0.1 * np.sin(3 * t), M)
    configs = []
    for bname, pname, body, u in _matrix(M, _GENERIC):
        psi_q = QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05], c=0.2)
        psi_c = ConjugatePerturbation(u, 0.4)
        configs.append((f"{bname}+{pname}+quadratic", body, u, f, psi_q))
        configs.append((f"{bname}+{pname}+conjugate", body, u, f, psi_c))
    return configs


def criterion_5a(M=256, Q=32):
    """Concavity of the log-marginal: centered second differences <= 1e-7."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for name, body, u, f, psi in _flow_matrix(M):
        tab, failures = concavity_check(body, u, FlowConfig(f=f, psi=psi, eps=0.08, n_t=21), Q)
        ok = ok and not failures
        rows.append({"config": name, "eps": tab["eps"],
                     "max_second_difference": tab["max_second_difference"]})
    return _record("5a", "log-marginal concavity over the flow matrix", 60.0,
                   t0, ok, {"rows": rows})


def criterion_5b(M=256, Q=32):
    """I'(0) and I''(0) against central finite differences of the marginal."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for name, body, u, f, psi in _flow_matrix(M):
        d, failures = shape_derivative_check(body, u, f, psi, Q)
        ok = ok and not failures
        rows.append({"config": name, "I1_rel_error": d["I1_fd_error"],
                     "I2_rel_error": d["I2_fd_error"]})
    return _record("5b", "shape derivatives vs finite-difference oracles", 60.0,
                   t0, ok, {"rows": rows})


def criterion_5c(M=256, Q=32):
    """Homothety flow linearity claim |S''(0)| <= 1e-8 (knowingly red).

    S''(0) for f = h, psi = u* equals Var_{mu|K}(u) - n, which is about
    -1.979 on the Gaussian unit disk.  The genuinely linear flow is the
    translation one, checked as the control below.
    """
    t0 = time.perf_counter()
    bodies, pots = standard_bodies(M), standard_potentials()
    body, u = bodies["disk1"], pots["gaussian"]
    f = BoundaryField(body.values.copy())
    psi = ConjugatePerturbation(u, 1.0)
    d = shape_derivatives(body, u, f, psi, Q=Q)
    # independent oracle: Var_{mu|K}(u) - 2
    from .forms import InteriorField

    uval = InteriorField(lambda p: u.value(p))
    usq = InteriorField(lambda p: u.value(p) ** 2)
    muK = interior_integral(body, u, 1.0, Q=Q)
    var = interior_integral(body, u, usq, Q=Q) / muK - (
        interior_integral(body, u, uval, Q=Q) / muK) ** 2
    details = {"S2": d["S2"], "variance_oracle": var - 2.0,
               "oracle_agreement": abs(d["S2"] - (var - 2.0)),
               "note": "claimed linear; actual S''(0) = Var(u) - n != 0"}
    ok = abs(d["S2"]) <= 1e-8
    return _record("5c", "homothety flow linearity (knowingly red)", 60.0, t0,
                   ok, details)


def criterion_5c_control(M=256, Q=32):
    """Translation flow is exactly linear: |S''(0)| at rounding level."""
    t0 = time.perf_counter()
    bodies, pots = standard_bodies(M), standard_potentials()
    rows = []
    ok = True
    for bname, pname in (("disk1", "gaussian"), ("ellipse21", "quad14"),
                         ("blob", "quartic")):
        body, u = bodies[bname], pots[pname]
        x0 = np.array([0.3, -0.2])
        f = BoundaryField(body.normals_grid @ x0)
        psi = QuadraticPerturbation(b=x0, c=-0.5)
        d = shape_derivatives(body, u, f, psi, Q=Q)
        ok = ok and abs(d["S2"]) <= 1e-8
        rows.append({"config": f"{bname}+{pname}", "S2": d["S2"]})
    return _record("5c-control", "translation flow linearity control", 60.0,
                   t0, ok, {"rows": rows})


def criterion_5d(M=256, Q=32):
    """Cross-module identity I(0) S''(0) = -(P + BL - 2 I)."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for name, body, u, f, psi in _flow_matrix(M):
        rep = mean_form_from_flow(body, u, f, psi, Q=Q)
        ok = ok and rep["passed"]
        rows.append({"config": name,
                     "relative_mismatch": rep["mismatch"] / rep["scale"]})
    return _record("5d", "flow vs forms cross-module identity", 60.0, t0, ok,
                   {"rows": rows})


_SPECTRAL_CONFIGS = (("disk1", "gaussian"), ("disk05", "gaussian"),
                     ("ellipse21", "gaussian"), ("ellipse21", "quad14"),
                     ("peanut", "quartic"))


def criterion_6(M=256, Q=32, N=16):
    """Spectral constants: coercivity, lambda1 > 1 (or inf), stability scaling.

    The +-1e-6 stability of C under N -> N+4 is asserted on the disk configs,
    where the pencil minimizer is a single harmonic and the value is exact
    (closed form C = R^3/(R^2+1) for the Gaussian disk).  On bodies with
    non-constant curvature the continuum infimum localizes at high frequency
    toward min_theta r(theta), so the discretized C keeps drifting downward
    with N; the drift is reported, not asserted away.
    """
    t0 = time.perf_counter()
    bodies, pots = standard_bodies(M), standard_potentials()
    rows = []
    ok = True
    for bname, pname in _SPECTRAL_CONFIGS:
        body, u = bodies[bname], pots[pname]
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
    return _record("6", "spectral constants and stability scaling", 10.0, t0, ok,
                   {"rows": rows, "lambda1_disk05": lam05,
                    "lambda1_disk05_oracle": lam_oracle,
                    "C_disk1": C_disk1, "C_disk1_oracle": 0.5,
                    "C_disk05": C_disk05, "C_disk05_oracle": 0.5**3 / 1.25})


def criterion_7(M=256, Q=32, N=16):
    """Symmetry: odd harmonics of rho_bar vanish; even-only basis matches p."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for bname, pname, body, u in _matrix(M, _SYMMETRIC):
        rep = solve_report(body, u, N=N, Q=Q)
        coeffs = rep["rho_bar"].galerkin_coeffs
        odd = [abs(coeffs[2 * k - 1]) for k in range(1, N + 1, 2)]
        odd += [abs(coeffs[2 * k]) for k in range(1, N + 1, 2)]
        odd_max = float(max(odd))
        p_even = concavity_power(body, u, N=N, Q=Q, even_only=True)
        dp = abs(p_even - rep["p"])
        ok = ok and odd_max <= 1e-10 and dp <= 1e-9
        rows.append({"config": f"{bname}+{pname}", "max_odd_coefficient": odd_max,
                     "p_even_minus_p": dp})
    return _record("7", "even symmetry of the minimizer", 2.0, t0, ok, {"rows": rows})


def criterion_8(M=256, Q=32, N=16):
    """Reformulation: intermediate identity and sign biconditional."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    g = standard_potentials()["gaussian"]
    cases = [(f"{b}+{p}", body, u) for b, p, body, u in _matrix(M, _SYMMETRIC)]
    cases += [(f"disk({R})+gaussian", disk(R, M=M), g) for R in (0.25, 0.5, 1.0, 2.0, 3.0)]
    for name, body, u in cases:
        rep = reformulation_check(body, u, N=N, Q=Q)
        ok = ok and rep["passed"]
        rows.append({"config": name,
                     "identity_relative_residual": rep["identity_residual"] / rep["identity_scale"],
                     "p": rep["p"], "quantity": rep["quantity"],
                     "sign_consistent": rep["sign_consistent"]})
    return _record("8", "dimensional reformulation checks", 10.0, t0, ok, {"rows": rows})


_PINCHED_CONFIGS = (("disk1", "gaussian"), ("ellipse21", "gaussian"),
                    ("peanut", "gaussian"), ("disk1", "quad14"),
                    ("ellipse21", "quad14"), ("peanut", "quad_mixed"))


def criterion_9(M=256, Q=32, N=16):
    """Moment and power bounds under Hessian pinching (r = k2/k1)."""
    t0 = time.perf_counter()
    bodies, pots = standard_bodies(M), standard_potentials()
    rows = []
    ok = True
    for bname, pname in _PINCHED_CONFIGS:
        rep = pinching_bounds(bodies[bname], pots[pname], N=N, Q=Q)
        ok = ok and rep["passed"]
        rows.append({"config": f"{bname}+{pname}", "r": rep["r"],
                     "moment": rep["moment"], "moment_limit": rep["moment_limit"],
                     "p": rep["p"], "power_floor": rep["power_floor"],
                     "passed": rep["passed"]})
    return _record("9", "pinched-Hessian moment and power bounds", 10.0, t0, ok,
                   {"rows": rows})


_BM_PAIRS = (("disk05", "disk15"), ("ellipse21", "disk1"), ("ellipse21", "ellipse12"))


def criterion_10(M=256, Q=32):
    """Direct 1/2-power concavity along Minkowski segments, Gaussian measure."""
    t0 = time.perf_counter()
    bodies = standard_bodies(M)
    g = standard_potentials()["gaussian"]
    rows = []
    ok = True
    for k, l in _BM_PAIRS:
        rep = bm_check(bodies[k], bodies[l], g, p=0.5, t_nodes=21, Q=Q)
        ok = ok and rep.passed
        rows.append({"pair": f"{k},{l}", "min_slack": rep.min_slack})
    return _record("10", "Brunn-Minkowski segments at p = 1/2", 10.0, t0, ok,
                   {"rows": rows})


def _reported_scalars(M, Q, N=16):
    bodies, pots = standard_bodies(M), standard_potentials()
    g, q14 = pots["gaussian"], pots["quad14"]
    out = {}
    out["p_disk1"] = concavity_power(bodies["disk1"], g, N=N, Q=Q)
    out["p_ellipse_quad"] = concavity_power(bodies["ellipse21"], q14, N=N, Q=Q)
    rho = BoundaryField.from_function(lambda t: np.cos(2 * t) + 0.3 * np.sin(t), M)
    phi = random_interior_field(np.random.default_rng(3))
    out["form_P"] = form_P(bodies["ellipse21"], q14, rho, rho, Q=Q)
    out["form_BL"] = form_BL(bodies["ellipse21"], q14, phi, phi, Q=Q)
    out["form_I"] = form_I(bodies["ellipse21"], q14, rho, phi, Q=Q)
    out["lambda1_disk05"] = lambda1(assemble(bodies["disk05"], g, N=N, Q=Q))[0]
    out["coercivity_ellipse"] = coercivity_constant(
        assemble(bodies["ellipse21"], g, N=N, Q=Q))
    out["interpolation_disk1"] = interpolation_constant(
        assemble(bodies["disk1"], g, N=N, Q=Q), sample_size=200)
    f = BoundaryField.from_function(lambda t: np.cos(2 * t), M)
    psi = QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
    out["flow_S2"] = shape_derivatives(bodies["ellipse21"], q14, f, psi, Q=Q)["S2"]
    out["bm_min_slack"] = bm_check(bodies["disk05"], bodies["disk15"], g, p=0.5,
                                   t_nodes=11, Q=Q).min_slack
    out["reformulation_quantity"] = reformulation_check(bodies["ellipse21"], g,
                                                        N=N, Q=Q)["quantity"]
    out["moment_ellipse_quad"] = pinching_bounds(bodies["ellipse21"], q14,
                                                 N=N, Q=Q)["moment"]
    return out


def criterion_11():
    """Quadrature gate: doubling M and Q moves no reported scalar by 1e-9."""
    t0 = time.perf_counter()
    base = _reported_scalars(256, 32)
    fine = _reported_scalars(512, 64)
    rows = []
    ok = True
    for key, v in base.items():
        rel = abs(fine[key] - v) / max(1.0, abs(v))
        ok = ok and rel <= 1e-9
        rows.append({"scalar": key, "coarse": v, "fine": fine[key],
                     "relative_change": rel})
    return _record("11", "quadrature doubling gate", None, t0, ok, {"rows": rows})


CRITERIA = (
    ("1", criterion_1),
    ("2", criterion_2),
    ("3", criterion_3),
    ("4a", criterion_4a),
    ("4b", criterion_4b),
    ("4c", criterion_4c),
    ("5a", criterion_5a),
    ("5b", criterion_5b),
    ("5c", criterion_5c),
    ("5c-control", criterion_5c_control),
    ("5d", criterion_5d),
    ("6", criterion_6),
    ("7", criterion_7),
    ("8", criterion_8),
    ("9", criterion_9),
    ("10", criterion_10),
    ("11", criterion_11),
)

KNOWN_RED = {"4b", "5c"}


def run_all(ids=None):
    """Run the acceptance criteria (optionally a subset of ids) in order."""
    records = []
    for cid, fn in CRITERIA:
        if ids is not None and cid not in ids:
            continue
        records.append(fn())
    return records
