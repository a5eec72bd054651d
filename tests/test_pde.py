import numpy as np
import numpy.testing as npt
import pytest

from convexlab import flow, forms, geometry, measure, pde, quad
from convexlab.errors import CoercivityFailure, ZeroMean
from convexlab.suite import random_boundary_field


def disk_solution_oracle(R):
    """Constant solution of the scalar equation rho*(mu(dK)/mu(K) - H_mu) = 1."""
    muBd = 2 * np.pi * R * np.exp(-R * R / 2)
    muK = 2 * np.pi * (1 - np.exp(-R * R / 2))
    H = 1.0 / R - R
    return 1.0 / (muBd / muK - H)


def disk_power_oracle(R):
    return 1.0 - (1.0 / R - R) * (np.exp(R * R / 2) - 1.0) / R


def test_assembly_gaussian_disk_structure(disk1, gaussian):
    sys = pde.assemble(disk1, gaussian, N=8)
    # H_mu = 0: no weighted mass
    npt.assert_allclose(sys.B, 0.0, atol=1e-13)
    # constant weight: stiffness diagonal pi k^2 e^{-1/2}
    off = sys.A - np.diag(np.diag(sys.A))
    npt.assert_allclose(off, 0.0, atol=1e-12)
    for k in range(1, 9):
        expect = np.pi * k * k * np.exp(-0.5)
        assert sys.A[2 * k - 1, 2 * k - 1] == pytest.approx(expect, rel=1e-12)
        assert sys.A[2 * k, 2 * k] == pytest.approx(expect, rel=1e-12)


def test_assembly_lebesgue_disk(disk1, lebesgue):
    sys = pde.assemble(disk1, lebesgue, N=6)
    for k in range(1, 7):
        assert sys.A[2 * k - 1, 2 * k - 1] == pytest.approx(np.pi * k * k, rel=1e-12)
    m = np.zeros(13)
    m[0] = 2 * np.pi
    npt.assert_allclose(sys.m, m, atol=1e-12)
    # Lebesgue mode: G is singular (translation null directions; the k = 1
    # diagonal of G is pi*k^2 - pi = 0) and the solve is refused
    assert sys.G[1, 1] == pytest.approx(0.0, abs=1e-12)
    from convexlab.errors import LebesgueModeRestriction

    with pytest.raises(LebesgueModeRestriction):
        pde.solve_rho_bar(sys)


def test_assembly_refuses_modes_the_grid_cannot_resolve(disk1, gaussian):
    # at 2N >= M, sin(M theta / 2) vanishes on the grid and higher harmonics
    # alias lower ones, so G would be singular by construction
    assert disk1.M == 256
    assert pde.assemble(disk1, gaussian, N=127).chol is not None
    for N in (128, 131):
        with pytest.raises(ValueError, match=f"N = {N} needs 2N < M = 256"):
            pde.assemble(disk1, gaussian, N=N)


def test_assembly_refuses_fewer_than_four_modes(disk1, gaussian):
    with pytest.raises(ValueError, match="^basis order N must be >= 4$"):
        pde.assemble(disk1, gaussian, N=3)


def test_assembly_reports_a_gram_matrix_that_is_not_positive_definite(gaussian):
    # on the gaussian disk of radius 40 the weight e^{-R^2/2} = e^{-800} on dK
    # underflows to 0, so A, B and m vanish with it and Cholesky fails on G
    with pytest.raises(CoercivityFailure,
                       match="^Cholesky of the P-form Gram matrix failed at N=16: "):
        pde.assemble(geometry.disk(40.0), gaussian)


def test_basis_nesting(ellipse21, quad14):
    g8 = pde.assemble(ellipse21, quad14, N=8).G
    g16 = pde.assemble(ellipse21, quad14, N=16).G
    d = g8.shape[0]
    npt.assert_allclose(g16[:d, :d], g8, atol=1e-10)


def test_solution_constant_on_gaussian_disk(disk1, gaussian):
    rep = pde.solve_report(disk1, gaussian)
    target = np.exp(0.5) - 1.0
    npt.assert_allclose(rep["rho_bar"].values, target, atol=1e-10)
    assert rep["p"] == pytest.approx(1.0, abs=1e-10)
    assert rep["strong_residual"] <= 1e-10
    # <rho_bar, rho_bar>_P equals int rho_bar dmu (weak form at rho = rho_bar)
    P = forms.form_P(disk1, gaussian, rep["rho_bar"], rep["rho_bar"])
    assert P == pytest.approx(rep["p_form_identity"], rel=1e-10)


@pytest.mark.parametrize("R", [0.25, 0.5, 1.0, 1.7, 2.5])
def test_scalar_equation_oracle_for_disks(R, gaussian):
    body = geometry.disk(R)
    rep = pde.solve_report(body, gaussian)
    npt.assert_allclose(rep["rho_bar"].values, disk_solution_oracle(R), atol=1e-9)
    assert rep["p"] == pytest.approx(disk_power_oracle(R), abs=1e-9)


def test_concavity_power_small_disk_limit(gaussian):
    # p(R) -> 1/2 as R -> 0+, approaching from above like 1/2 + 3R^2/8
    p = pde.concavity_power(geometry.disk(0.05), gaussian)
    assert p == pytest.approx(0.5 + 3 * 0.05**2 / 8, abs=1e-5)
    assert p > 0.5


def test_apply_L_constant_field(disk1, gaussian):
    c = 2.3
    out = pde.apply_L(disk1, gaussian, forms.BoundaryField.constant(c, disk1.M))
    muBd = quad.boundary_integral(disk1, gaussian, 1.0)
    muK = quad.interior_integral(disk1, gaussian, 1.0)
    npt.assert_allclose(out.values, c * muBd / muK, atol=1e-12)


def test_strong_residual_of_solution(ellipse21, blob, quad14, quartic):
    # sup-norm of L(rho_bar) - 1 decays geometrically in the basis order;
    # these configs resolve below 1e-7 by N = 32
    for body, u in ((ellipse21, quad14), (blob, quartic)):
        coarse = pde.solve_report(body, u, N=8)["strong_residual"]
        rep = pde.solve_report(body, u, N=32)
        assert rep["strong_residual"] <= 1e-7
        assert rep["strong_residual"] < 1e-4 * coarse


def test_lebesgue_support_function_identity(disk1, ellipse21, blob, lebesgue):
    # u == 0: L(h(nu)) == 1 identically
    for body in (disk1, ellipse21, blob):
        out = pde.apply_L(body, lebesgue, forms.BoundaryField(body.values))
        npt.assert_allclose(out.values, 1.0, atol=1e-9)


def test_weak_strong_consistency(ellipse21, quad14, rng):
    # int sigma L(rho) dmu = <rho, sigma>_P for random smooth fields
    for _ in range(5):
        rho = random_boundary_field(rng, ellipse21.M)
        sigma = random_boundary_field(rng, ellipse21.M)
        lhs = quad.boundary_integral(
            ellipse21, quad14,
            pde.apply_L(ellipse21, quad14, rho).values * sigma.values)
        rhs = forms.form_P(ellipse21, quad14, rho, sigma)
        assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(rhs)))


def test_support_identity_check(disk1, ellipse21, gaussian):
    rep = pde.support_identity_check(disk1, gaussian)
    assert rep["pointwise_residual"] <= 1e-9
    assert rep["integral_residual"] <= 1e-9
    rep = pde.support_identity_check(ellipse21, gaussian)
    assert rep["passed"]


def test_rayleigh_minimum_property(disk1, gaussian, rng):
    p = pde.concavity_power(disk1, gaussian)
    assert pde.rayleigh(disk1, gaussian,
                        forms.BoundaryField.constant(1.0, disk1.M)) == pytest.approx(
        p, abs=1e-10)
    rep = pde.solve_report(disk1, gaussian)
    assert pde.rayleigh(disk1, gaussian, rep["rho_bar"]) == pytest.approx(p, abs=1e-10)
    for _ in range(100):
        rho = random_boundary_field(rng, disk1.M)
        try:
            J = pde.rayleigh(disk1, gaussian, rho)
        except ZeroMean:
            continue
        assert J >= p - 1e-8


def test_rayleigh_zero_mean_guard(disk1, gaussian):
    with pytest.raises(ZeroMean):
        pde.rayleigh(disk1, gaussian,
                     forms.BoundaryField.from_function(np.cos, disk1.M))


def test_gram_matrix_reconstructs_form(ellipse21, quartic, rng):
    sys = pde.assemble(ellipse21, quartic, N=10)
    E = sys.E
    for _ in range(4):
        a = rng.standard_normal(sys.dim) / (1 + np.arange(sys.dim))
        b = rng.standard_normal(sys.dim) / (1 + np.arange(sys.dim))
        ra = forms.BoundaryField(E.T @ a)
        rb = forms.BoundaryField(E.T @ b)
        direct = forms.form_P(ellipse21, quartic, ra, rb)
        assert a @ sys.G @ b == pytest.approx(direct, abs=1e-10 * max(1, abs(direct)))


def test_solution_spectral_convergence(blob, quartic):
    r16 = pde.solve_rho_bar(pde.assemble(blob, quartic, N=16))
    r20 = pde.solve_rho_bar(pde.assemble(blob, quartic, N=20))
    l2 = np.sqrt(np.mean((r16.values - r20.values) ** 2))
    assert l2 <= 1e-8


def test_power_translation_invariance(ellipse21, gaussian):
    v = np.array([0.25, -0.15])
    t = ellipse21.theta_grid
    body_v = geometry.SupportFunction2D(
        ellipse21.values + v[0] * np.cos(t) + v[1] * np.sin(t))
    u_v = measure.translate_potential(gaussian, v)
    p0 = pde.concavity_power(ellipse21, gaussian)
    p1 = pde.concavity_power(body_v, u_v)
    assert p1 == pytest.approx(p0, abs=1e-8)


def test_power_density_scaling_invariance(ellipse21, gaussian):
    # u -> u + const rescales numerator and denominator identically
    u_shift = measure.shift_potential(gaussian, 1.7)
    r0 = pde.solve_report(ellipse21, gaussian)
    r1 = pde.solve_report(ellipse21, u_shift)
    assert r1["p"] == pytest.approx(r0["p"], abs=1e-10)
    npt.assert_allclose(r1["rho_bar"].values, r0["rho_bar"].values, atol=1e-10)


def test_even_basis_consistency(peanut, quad14):
    p_full = pde.concavity_power(peanut, quad14)
    p_even = pde.concavity_power(peanut, quad14, even_only=True)
    assert abs(p_full - p_even) < 1e-9


def test_even_solution_odd_coefficients_vanish(ellipse21, gaussian):
    rep = pde.solve_report(ellipse21, gaussian, N=16)
    c = rep["rho_bar"].galerkin_coeffs
    for k in range(1, 17, 2):
        assert abs(c[2 * k - 1]) < 1e-10
        assert abs(c[2 * k]) < 1e-10


def test_rho_bar_stays_a_boundary_field(ellipse21, gaussian):
    # the attached Galerkin vector must not shadow BoundaryField.coeffs()
    rho_bar = pde.solve_report(ellipse21, gaussian)["rho_bar"]
    npt.assert_allclose(rho_bar.eval(ellipse21.theta_grid), rho_bar.values, atol=1e-12)
    x = np.array([[0.3, 0.2], [-0.5, 0.1]])
    assert np.all(np.isfinite(flow.vector_field_X(ellipse21, rho_bar, 0.01, x)))
