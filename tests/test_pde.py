import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convexlab import flow, forms, geometry, measure, pde, quad, spectral
from convexlab.acceptance import SCAN_RADII, disk_power_oracle
from convexlab.errors import CoercivityFailure, NonFiniteIntegral, NotStrictlyConvex, ZeroMean
from convexlab.suite import random_boundary_field, standard_bodies, standard_potentials


def disk_solution_oracle(R):
    """Constant solution of the scalar equation rho*(mu(dK)/mu(K) - H_mu) = 1."""
    muBd = 2 * np.pi * R * np.exp(-R * R / 2)
    muK = 2 * np.pi * (1 - np.exp(-R * R / 2))
    H = 1.0 / R - R
    return 1.0 / (muBd / muK - H)


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


def test_a_p_that_overflows_raises_instead_of_returning_inf(gaussian):
    # on the gaussian disk of radius 38, int rho_bar dmu = 1.7e-313 and
    # mu(K) / int rho_bar dmu overflows; at 37 p is finite (1.9e297), at 39
    # the Gram matrix is no longer positive definite
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        assert pde.concavity_power(geometry.disk(37.0), gaussian) < np.inf
        for solve in (pde.concavity_power, pde.solve_report):
            with pytest.raises(NonFiniteIntegral, match=r"^p = mu\(K\) / int rho_bar dmu = "
                               r"6\.28319 / 1\.72928e-313 is not finite$"):
                solve(geometry.disk(38.0), gaussian)
    with pytest.raises(CoercivityFailure):
        pde.concavity_power(geometry.disk(39.0), gaussian)


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


def test_disk_power_oracle_matches_a_50_digit_evaluation():
    # the closed form in double precision against mpmath at 50 digits, on
    # criterion 2's radii, the golden scan's and seeded draws from perfbench's
    # [0.25, 3.0]; the worst case is about 3e-15, at the small radii, where
    # e^{R^2/2} - 1 starts to cancel
    import mpmath

    radii = [*SCAN_RADII, 0.3, 0.7, 1.0, 2.5, *np.random.default_rng(5).uniform(0.25, 3.0, 20)]
    with mpmath.workdps(50):
        for R in radii:
            r = mpmath.mpf(R)
            exact = 1 - (1 / r - r) * mpmath.expm1(r * r / 2) / r
            assert disk_power_oracle(R) == pytest.approx(float(exact), rel=1e-13, abs=0.0), R


@settings(max_examples=8, deadline=None)
@given(d0=st.floats(0.6, 1.6), d1=st.floats(0.6, 1.6), shear=st.floats(-0.6, 0.6),
       R=st.floats(0.3, 2.0))
def test_affine_image_of_a_gaussian_disk_keeps_its_power(d0, d1, shear, R):
    # x -> Sx maps S^{-1}B_R with the weight e^{-<S^T S x, x>/2} onto B_R with
    # the gaussian weight times a constant, and p is scale-free: an oracle on
    # ellipses of any axes and tilt
    S = np.array([[1.0, shear], [0.0, 1.0]]) @ np.diag([d0, d1])
    theta = geometry.disk(1.0).theta_grid
    nu = np.column_stack([np.cos(theta), np.sin(theta)])
    body = geometry.SupportFunction2D(R * np.linalg.norm(nu @ np.linalg.inv(S), axis=1))
    p = pde.concavity_power(body, measure.quadratic_potential(S.T @ S), N=48)
    assert p == pytest.approx(disk_power_oracle(R), rel=1e-12)


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


@pytest.mark.parametrize("body", standard_bodies().values(), ids=standard_bodies().keys())
def test_lebesgue_power_on_the_quotient_by_first_harmonics_is_one_half(body, lebesgue):
    # u == 0: G is singular only along cos and sin (translations).  Off them,
    # p = mu(K) / (m'.c) with G'c = m' is 1/2, the Brunn-Minkowski equality
    # case, on every body; assemble's B scaled by 1 + 1e-6 moves it by ~5e-7
    system = pde.assemble(body, lebesgue, N=32)
    keep = np.r_[0, 3:system.dim]
    c = np.linalg.solve(system.G[np.ix_(keep, keep)], system.m[keep])
    assert abs(system.muK / (system.m[keep] @ c) - 0.5) <= 1e-13


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


# -- oracles on bodies that are not disks ---------------------------------------

BODIES, POTENTIALS = standard_bodies(), standard_potentials()
_POWERS = {}  # (body, potential) -> p at N = Q = 32


def _isometry_image(body, u, k, reflect):
    """(K, u) moved by x -> R S x: S = diag(1, -1) or Id, R the turn by k grid steps.

    h_{SK}(theta) = h(-theta) and h_{RK}(theta) = h(theta - 2 pi k / M) are
    samples of h permuted, and u(x) = <Ax, x>/2 goes to <R S A S R^T x, x>/2.
    """
    h, S = body.values, np.eye(2)
    if reflect:
        h, S = np.roll(h[::-1], 1), np.diag([1.0, -1.0])
    phi = 2.0 * np.pi * k / body.M
    R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]) @ S
    A = R @ u.hess(np.zeros(2)) @ R.T
    return (geometry.SupportFunction2D(np.roll(h, k)),
            measure.quadratic_potential(0.5 * (A + A.T)))


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(body=st.sampled_from(["ellipse21", "blob", "peanut"]),
       potential=st.sampled_from(["gaussian", "quad14", "quad_mixed"]),
       k=st.integers(1, 255), reflect=st.booleans())
def test_power_is_invariant_under_rotation_and_reflection(body, potential, k, reflect):
    # p is a quantity of the pair (K, mu), so an isometry that moves both
    # keeps it; these pairs reach the off-diagonal Hessian entries and the
    # frame's sin and cos, which disks and diagonal A never do
    key = (body, potential)
    if key not in _POWERS:
        _POWERS[key] = pde.concavity_power(BODIES[body], POTENTIALS[potential], N=32, Q=32)
    K, u = _isometry_image(BODIES[body], POTENTIALS[potential], k, reflect)
    assert pde.concavity_power(K, u, N=32, Q=32) == pytest.approx(_POWERS[key], rel=1e-13)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(c0=st.floats(0.2, 3.0), amplitudes=st.lists(st.floats(-1.0, 1.0), min_size=6,
                                                  max_size=6))
def test_gaussian_power_of_an_origin_symmetric_body_is_at_least_one_half(c0, amplitudes):
    # Eskenazis-Moschidis: p(gamma, K) >= 1/2 for origin-symmetric K.  The floor
    # is nearly reached as K shrinks to the Lebesgue limit (0.5165 at c0 ~ 0.21),
    # where test_lebesgue_power_on_the_quotient_by_first_harmonics_is_one_half
    # pins the exact 1/2.  The Galerkin p is a Rayleigh-Ritz upper bound.
    a = iter(amplitudes)
    cos, sin = ({k: next(a) * c0 / (2 * k * k) for k in (2, 4, 6)} for _ in range(2))
    try:
        K = geometry.fourier_body(c0, cos, sin)
    except NotStrictlyConvex:
        assume(False)
    assert pde.concavity_power(K, POTENTIALS["gaussian"], N=32) >= 0.5


def _collocation_power(body, u, Q=32):
    """p = mu(K) / int rho dmu with L(rho) = 1 collocated on the body's M-point grid.

    An independent route to p: Fourier differentiation matrices in place of
    assemble's A, B and m and the trigonometric basis.
    """
    M = body.M
    D1, D2 = (spectral.grid_derivative(np.eye(M), order).T for order in (1, 2))
    x = body.boundary_grid
    drift = np.sum(u.grad(x) * body.tangents_grid, axis=1)
    w = u.weight(x) * body.radius_grid * (2.0 * np.pi / M)  # int_dK rho dmu = w @ rho
    muK = quad.interior_integral(body, u, Q=Q)
    L = (-D2 / body.radius_grid[:, None] + drift[:, None] * D1
         - np.diag(measure.weighted_mean_curvature(body, u)) + np.outer(np.ones(M), w) / muK)
    return muK / (w @ np.linalg.solve(L, np.ones(M)))


@pytest.mark.parametrize("body, potential", [
    ("disk1", "gaussian"), ("ellipse21", "quad14"), ("ellipse21", "gaussian"),
    ("peanut", "quartic"), ("blob", "quad_mixed"), ("blob", "gaussian"), ("disk15", "quartic")])
def test_galerkin_power_matches_strong_form_collocation(body, potential):
    # the gap is the collocation's own rounding (<= 4.2e-13) once N resolves
    # rho_bar; at N = 16 ellipse21+quad14 is still truncated (6.3e-11)
    K, u = BODIES[body], POTENTIALS[potential]
    p = _collocation_power(K, u)
    for N, tol in ((16, 1e-9), (32, 1e-11), (64, 1e-11)):
        assert pde.concavity_power(K, u, N=N, Q=32) == pytest.approx(p, rel=tol)
