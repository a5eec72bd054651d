import numpy as np
import numpy.testing as npt
import pytest

from convexlab import analysis, forms, geometry, pde
from convexlab.errors import PinchingUndeclared


def test_lambda1_gaussian_unit_disk_is_infinite(disk1, gaussian):
    lam, lam_res, note = analysis.lambda1(pde.assemble(disk1, gaussian))
    assert np.isinf(lam) and np.isinf(lam_res)
    assert "nonpositive" in note


def test_lambda1_small_disk_closed_form(gaussian):
    # energy/stiffness for cos(k t) on disk(R) is (1 - R^2)/k^2: the best
    # constant is attained at k = 1, so lambda1 = 1/(1 - R^2)
    for R in (0.3, 0.5, 0.8):
        lam, _, _ = analysis.lambda1(pde.assemble(geometry.disk(R), gaussian))
        assert lam == pytest.approx(1.0 / (1.0 - R * R), abs=1e-9)
        assert lam > 1.0


def test_lambda1_dual_rayleigh_scan(gaussian, peanut, quartic, rng):
    # no random field may beat the computed constant
    for body, u in ((geometry.disk(0.5), gaussian), (peanut, quartic)):
        system = pde.assemble(body, u)
        lam = analysis.lambda1(system)[0]
        E = system.B - np.outer(system.m, system.m) / system.muK
        for _ in range(1000):
            c = analysis.random_coefficients(rng, system.dim)
            energy = c @ E @ c
            stiffness = c @ system.A @ c
            if energy > 1e-12:
                assert stiffness / energy >= lam - 1e-9


def test_coercivity_disk_closed_forms(gaussian):
    # pencil minimum at the k = 1 harmonic: C = R^3/(R^2 + 1)
    for R in (0.5, 1.0, 1.6):
        C = analysis.coercivity_constant(pde.assemble(geometry.disk(R), gaussian))
        assert C == pytest.approx(R**3 / (R * R + 1.0), abs=1e-9)


def test_coercivity_randomized_lower_bound(ellipse21, gaussian, rng):
    system = pde.assemble(ellipse21, gaussian)
    C = analysis.coercivity_constant(system)
    S = system.S
    assert C > 0
    for _ in range(500):
        c = analysis.random_coefficients(rng, system.dim)
        assert c @ system.G @ c >= (C - 1e-9) * (c @ S @ c)


def test_stability_scaling_report(ellipse21, gaussian):
    rep = analysis.coercivity_report(pde.assemble(ellipse21, gaussian))
    assert rep["slope"] == pytest.approx(0.5, abs=1e-12)
    assert rep["bound_holds"]
    assert rep["stability_constant"] == pytest.approx(1 / np.sqrt(rep["C"]), rel=1e-12)


def test_interpolation_constant_closed_form_start(disk1, gaussian):
    # for rho == 1 on the gaussian unit disk the ratio has a closed form
    muBd = 2 * np.pi * np.exp(-0.5)
    muK = 2 * np.pi * (1 - np.exp(-0.5))
    P = muBd**2 / muK
    ratio = muBd / (np.sqrt(P) * np.sqrt(muBd))
    worst = analysis.interpolation_constant(pde.assemble(disk1, gaussian), sample_size=400)
    assert worst >= ratio - 1e-12
    assert np.isfinite(worst)


def test_interpolation_constant_sample_stability(ellipse21, quad14):
    a = analysis.interpolation_constant(pde.assemble(ellipse21, quad14), sample_size=500)
    b = analysis.interpolation_constant(pde.assemble(ellipse21, quad14), sample_size=1000)
    assert b <= 1.2 * a + 1e-12
    assert b >= a - 1e-12  # larger seeded sample extends the smaller scan


def test_interpolation_ratio_scale_invariance(disk1, gaussian):
    # all three quantities are homogeneous (degrees 2 = 1 + 1): delta scaling
    # leaves the ratio unchanged
    system = pde.assemble(disk1, gaussian)
    S = system.S
    E = system.E
    rng = np.random.default_rng(5)
    c = analysis.random_coefficients(rng, system.dim)
    mass = (E * (np.exp(-gaussian.value(disk1.boundary_grid)) * disk1.radius_grid)) @ E.T
    mass *= 2 * np.pi / disk1.M
    def ratio(vec):
        return (vec @ mass @ vec) / (np.sqrt(vec @ system.G @ vec)
                                     * np.sqrt(vec @ S @ vec))
    assert ratio(c) == pytest.approx(ratio(0.01 * c), rel=1e-10)


def test_bm_identical_bodies_zero_slack(disk1, gaussian):
    for p in (0.25, 0.5, 1.0, 2.0):
        rep = analysis.bm_check(disk1, disk1, gaussian, p, t_nodes=9)
        npt.assert_allclose(rep.slacks, 0.0, atol=1e-14)


def test_bm_gaussian_disk_pair(gaussian):
    rep = analysis.bm_check(geometry.disk(0.5), geometry.disk(1.5), gaussian,
                            p=0.5, t_nodes=21)
    assert rep.passed and rep.min_slack >= -1e-9


def test_bm_monotonicity_in_p(ellipse21, gaussian):
    # Hoelder: passing at p implies passing at p/2 on the same data
    other = geometry.ellipse(1.0, 2.0)
    rep1 = analysis.bm_check(ellipse21, other, gaussian, p=0.5, t_nodes=11)
    rep2 = analysis.bm_check(ellipse21, other, gaussian, p=0.25, t_nodes=11)
    assert rep1.passed
    assert rep2.passed


def test_bm_below_local_power_passes(peanut, gaussian):
    p_local = pde.concavity_power(peanut, gaussian)
    rep = analysis.bm_check(peanut, geometry.disk(1.0), gaussian,
                            p=max(p_local - 0.05, 0.05), t_nodes=11)
    assert rep.passed


def test_bm_local_probe_notes(gaussian):
    rep = analysis.bm_check(geometry.disk(0.5), geometry.disk(1.5), gaussian,
                            p=0.9, t_nodes=11, local_probe=True)
    assert rep.local_powers
    # p = 0.9 exceeds the smallest local power along the segment (~0.6), so
    # the advisory note must fire even though the slack may stay positive
    assert min(rep.local_powers.values()) < 0.9
    assert "local_global" in rep.notes


def test_local_concavity_fd_disk_radial_oracle(disk1, gaussian):
    # f == c: mu((1+tc)K)^p has the 1-D closed form derivative
    c, p = 0.7, 0.8
    f = forms.BoundaryField.constant(c, disk1.M)
    val = analysis.local_concavity_fd(disk1, gaussian, f, p)
    def g(t):
        R = 1.0 + t * c
        return (2 * np.pi * (1 - np.exp(-R * R / 2))) ** p
    h = 1e-3
    oracle = (g(h) - 2 * g(0) + g(-h)) / h**2
    assert val == pytest.approx(oracle, rel=1e-6)


def test_local_concavity_sign_resolution(disk05, gaussian):
    p_star = pde.concavity_power(disk05, gaussian)
    f = pde.solve_report(disk05, gaussian)["rho_bar"]
    assert analysis.local_concavity_fd(disk05, gaussian, f, p_star - 1e-4) <= 1e-7
    assert analysis.local_concavity_fd(disk05, gaussian, f, p_star + 1e-2) > 0


def test_local_concavity_log_mode(disk1, gaussian):
    # p = 0 checks plain log-concavity of the marginal
    f = forms.BoundaryField.from_function(lambda t: np.cos(2 * t), disk1.M)
    assert analysis.local_concavity_fd(disk1, gaussian, f, 0.0) <= 1e-7


def test_reformulation_disk_and_ellipse(disk1, ellipse21, gaussian):
    rep = analysis.reformulation_check(disk1, gaussian)
    assert rep["passed"]
    assert rep["identity_residual"] <= 1e-9 * rep["identity_scale"]
    assert rep["p"] == pytest.approx(1.0, abs=1e-9)
    rep = analysis.reformulation_check(ellipse21, gaussian)
    assert rep["passed"]


def test_reformulation_radius_scan(gaussian):
    for R in (0.25, 0.5, 1.0, 2.0, 3.0):
        rep = analysis.reformulation_check(geometry.disk(R), gaussian)
        assert rep["passed"], R


def test_reformulation_requires_symmetry(blob, gaussian):
    with pytest.raises(ValueError):
        analysis.reformulation_check(blob, gaussian)


def test_pinching_bounds_disk_gaussian(disk1, gaussian):
    rep = analysis.pinching_bounds(disk1, gaussian)
    assert rep["passed"]
    assert rep["r"] == 1.0
    assert rep["p"] == pytest.approx(1.0, abs=1e-9)
    # moment = E[|x|^2] under the restricted gaussian, below n*k2/k1 = 2
    muK = 2 * np.pi * (1 - np.exp(-0.5))
    moment_oracle = 2 * np.pi * (2 - 3 * np.exp(-0.5)) / muK
    assert rep["moment"] == pytest.approx(moment_oracle, rel=1e-10)
    assert rep["power_floor"] == 0.25


def test_pinching_bounds_quadratic_ratio_four(ellipse21, quad14):
    rep = analysis.pinching_bounds(ellipse21, quad14)
    assert rep["passed"]
    assert rep["r"] == 4.0
    assert rep["power_floor"] == pytest.approx(0.1)
    assert rep["p"] >= 0.1
    # affine image of disk(2)+gaussian: the power matches that closed form
    oracle = 1.0 - (0.5 - 2.0) * (np.exp(2.0) - 1.0) / 2.0
    assert rep["p"] == pytest.approx(oracle, rel=1e-9)


def test_pinching_scan_inverse_power_bound(gaussian):
    for R in (0.5, 1.0, 2.0):
        rep = analysis.pinching_bounds(geometry.disk(R), gaussian)
        assert 1.0 / rep["p"] <= 2.0 + rep["moment"] + 1e-9


def test_pinching_requires_declaration(disk1, quartic):
    with pytest.raises(PinchingUndeclared):
        analysis.pinching_bounds(disk1, quartic)
