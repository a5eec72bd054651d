import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexlab import forms, geometry, measure, quad
from convexlab.errors import LebesgueModeRestriction
from convexlab.suite import random_boundary_field, random_interior_field


def mu_constants():
    e = np.exp(-0.5)
    muBd = 2 * np.pi * e
    muK = 2 * np.pi * (1 - e)
    return muBd, muK


def test_form_P_constant_on_gaussian_disk(disk1, gaussian):
    # H_mu = 0 there, so P(1,1) = mu(dK)^2 / mu(K)
    muBd, muK = mu_constants()
    rho = forms.BoundaryField.constant(1.0, disk1.M)
    assert forms.form_P(disk1, gaussian, rho, rho) == pytest.approx(
        muBd**2 / muK, rel=1e-12)


def test_form_P_zero_argument(ellipse21, quad14):
    z = forms.BoundaryField.constant(0.0, ellipse21.M)
    rho = random_boundary_field(np.random.default_rng(1), ellipse21.M)
    assert forms.form_P(ellipse21, quad14, z, rho) == 0.0


def test_form_P_matches_arclength_oracle(disk1, gaussian):
    # un-reduced integrand <II^{-1} grad rho, grad rho> evaluated as a
    # boundary field and fed through the generic boundary quadrature
    rho = forms.BoundaryField.from_function(np.cos, disk1.M)
    r = disk1.radius_grid
    integrand = r * (rho.deriv() / r) ** 2
    grad_term_oracle = quad.boundary_integral(disk1, gaussian, integrand)
    hmu = measure.weighted_mean_curvature(disk1, gaussian)
    oracle = (grad_term_oracle
              - quad.boundary_integral(disk1, gaussian, hmu * rho.values**2)
              + quad.boundary_integral(disk1, gaussian, rho.values)**2
              / quad.interior_integral(disk1, gaussian, 1.0))
    val = forms.form_P(disk1, gaussian, rho, rho)
    assert val == pytest.approx(oracle, abs=1e-10)
    assert val > 0


def test_form_BL_constants_are_null(disk1, gaussian):
    c = forms.InteriorField.constant(3.7)
    assert abs(forms.form_BL(disk1, gaussian, c, c)) < 1e-12


def test_form_BL_coordinate_closed_form(disk1, gaussian):
    # BL(x1, x1) = mu(K) - int x1^2 dmu; radial closed forms on the disk
    muBd, muK = mu_constants()
    x1 = forms.InteriorField.coordinate(0)
    int_x1sq = np.pi * (2 - 3 * np.exp(-0.5))  # half of int |x|^2 dmu
    assert forms.form_BL(disk1, gaussian, x1, x1) == pytest.approx(
        muK - int_x1sq, rel=1e-10)


def test_form_BL_odd_symmetry(disk1, gaussian):
    x1 = forms.InteriorField.coordinate(0)
    x2 = forms.InteriorField.coordinate(1)
    assert abs(forms.form_BL(disk1, gaussian, x1, x2)) < 1e-12


def test_form_BL_refused_for_lebesgue(disk1, lebesgue):
    phi = forms.InteriorField.coordinate(0)
    with pytest.raises(LebesgueModeRestriction):
        forms.form_BL(disk1, lebesgue, phi, phi)


def test_form_I_trivial_cases(disk1, gaussian):
    z = forms.BoundaryField.constant(0.0, disk1.M)
    phi = forms.InteriorField.coordinate(0)
    assert forms.form_I(disk1, gaussian, z, phi) == 0.0
    rho = random_boundary_field(np.random.default_rng(2), disk1.M)
    c = forms.InteriorField.constant(2.5)
    assert abs(forms.form_I(disk1, gaussian, rho, c)) < 1e-10


def test_form_I_radial_oracle(disk1, gaussian):
    # rho = 1, phi = |x|^2: I = e^{-1/2} 2 pi - (mu(dK)/mu(K)) int |x|^2 dmu
    muBd, muK = mu_constants()
    rho = forms.BoundaryField.constant(1.0, disk1.M)
    phi = forms.InteriorField(lambda p: (p**2).sum(axis=-1),
                              lambda p: 2.0 * p)
    int_sq = 2 * np.pi * (2 - 3 * np.exp(-0.5))
    oracle = muBd * 1.0 - (muBd / muK) * int_sq
    assert forms.form_I(disk1, gaussian, rho, phi) == pytest.approx(oracle, abs=1e-9)


def test_bilinearity(ellipse21, quad14, rng):
    a, b = rng.normal(size=2)
    r0 = random_boundary_field(rng, ellipse21.M)
    r1 = random_boundary_field(rng, ellipse21.M)
    sigma = random_boundary_field(rng, ellipse21.M)
    lhs = forms.form_P(ellipse21, quad14, a * r0 + b * r1, sigma)
    rhs = a * forms.form_P(ellipse21, quad14, r0, sigma) + b * forms.form_P(
        ellipse21, quad14, r1, sigma)
    assert lhs == pytest.approx(rhs, abs=1e-10 * max(1, abs(rhs)))
    p0 = random_interior_field(rng)
    p1 = random_interior_field(rng)
    lhs = forms.form_BL(ellipse21, quad14, a * p0 + b * p1, p0)
    rhs = a * forms.form_BL(ellipse21, quad14, p0, p0) + b * forms.form_BL(
        ellipse21, quad14, p1, p0)
    assert lhs == pytest.approx(rhs, abs=1e-10 * max(1, abs(rhs)))


def test_symmetry_of_P_and_BL(blob, quartic, rng):
    r0 = random_boundary_field(rng, blob.M)
    r1 = random_boundary_field(rng, blob.M)
    assert forms.form_P(blob, quartic, r0, r1) == pytest.approx(
        forms.form_P(blob, quartic, r1, r0), rel=1e-14, abs=1e-14)
    p0 = random_interior_field(rng)
    p1 = random_interior_field(rng)
    assert forms.form_BL(blob, quartic, p0, p1) == pytest.approx(
        forms.form_BL(blob, quartic, p1, p0), rel=1e-14, abs=1e-14)


def test_positive_semidefiniteness(ellipse21, gaussian, rng):
    for _ in range(25):
        rho = random_boundary_field(rng, ellipse21.M)
        P = forms.form_P(ellipse21, gaussian, rho, rho)
        assert P >= -1e-10 * max(1.0, abs(P))
        phi = random_interior_field(rng)
        BL = forms.form_BL(ellipse21, gaussian, phi, phi)
        assert BL >= -1e-10 * max(1.0, abs(BL))


def test_mean_and_multiplicative_reports(disk1, gaussian, rng):
    for _ in range(30):
        rho = random_boundary_field(rng, disk1.M)
        phi = random_interior_field(rng)
        rep = forms.check_mean_form(disk1, gaussian, rho, phi)
        assert rep.passed_mean and rep.passed_mult
        # optimal-t reduction: min_t t^2 P - 2 t I + BL = BL - I^2/P
        if rep.P > 1e-12:
            reduced = rep.BL - rep.I**2 / rep.P
            assert reduced * rep.P == pytest.approx(rep.slack_mult,
                                                    abs=1e-10 * rep.scale**2)


def test_mean_implies_multiplicative_at_equality(disk1, gaussian):
    rho, phi = forms.translation_witness(disk1, gaussian, [0.8, -0.3], z=1.2)
    rep = forms.check_mean_form(disk1, gaussian, rho, phi)
    assert abs(rep.slack_mean) <= 1e-10 * rep.scale
    assert abs(rep.slack_mult) <= 1e-10 * rep.scale**2
    npt.assert_allclose([rep.P, rep.BL], [rep.I, rep.I], rtol=1e-10)


def test_translation_invariance_of_forms(ellipse21, gaussian):
    v = np.array([0.3, -0.2])
    t = ellipse21.theta_grid
    body_v = geometry.SupportFunction2D(
        ellipse21.values + v[0] * np.cos(t) + v[1] * np.sin(t))
    u_v = measure.translate_potential(gaussian, v)
    rho = forms.BoundaryField.from_function(lambda s: np.cos(2 * s), ellipse21.M)
    phi = forms.InteriorField(lambda p: (p**2).sum(axis=-1), lambda p: 2.0 * p)
    phi_v = forms.InteriorField(lambda p: ((p - v) ** 2).sum(axis=-1),
                                lambda p: 2.0 * (p - v))
    for fn, args0, args1 in (
        (forms.form_P, (rho, rho), (rho, rho)),
        (forms.form_BL, (phi, phi), (phi_v, phi_v)),
        (forms.form_I, (rho, phi), (rho, phi_v)),
    ):
        a = fn(ellipse21, gaussian, *args0)
        b = fn(body_v, u_v, *args1)
        assert a == pytest.approx(b, abs=1e-9 * max(1.0, abs(a)))


def test_equality_witness_construction(disk1, gaussian):
    rho, phi = forms.equality_witness(disk1, gaussian, 1.0)
    npt.assert_allclose(rho.values, disk1.values, atol=1e-14)
    pts = np.array([[0.3, 0.1], [-0.2, 0.5]])
    npt.assert_allclose(phi.value(pts), 0.5 * (pts**2).sum(axis=1), atol=1e-14)
    npt.assert_allclose(phi.gradient(pts), pts, atol=1e-14)


def test_equality_witness_alpha_zero_degenerates(ellipse21, quad14):
    rho, phi = forms.equality_witness(ellipse21, quad14, 0.0, (0.2, 0.1), z=4.0)
    rep = forms.check_mean_form(ellipse21, quad14, rho, phi)
    assert abs(rep.P) < 1e-12 and abs(rep.BL) < 1e-10 and abs(rep.I) < 1e-12


def test_equality_witness_shift_invariance(disk1, gaussian):
    # the z offset never moves any of the three forms
    r0, p0 = forms.equality_witness(disk1, gaussian, 0.6, (0.1, -0.1), z=0.0)
    r1, p1 = forms.equality_witness(disk1, gaussian, 0.6, (0.1, -0.1), z=11.0)
    rep0 = forms.check_mean_form(disk1, gaussian, r0, p0)
    rep1 = forms.check_mean_form(disk1, gaussian, r1, p1)
    assert rep0.P == pytest.approx(rep1.P, rel=1e-12)
    assert rep0.BL == pytest.approx(rep1.BL, rel=1e-9)
    assert rep0.I == pytest.approx(rep1.I, rel=1e-9)


def test_scaling_witness_slack_is_positive(disk1, gaussian):
    # measured fact: the alpha-scaling family does NOT saturate the mean form;
    # on the gaussian unit disk the slack equals
    # (P + BL)/2 - I with P = muBd^2/muK, computed here from closed forms
    muBd, muK = mu_constants()
    rho, phi = forms.equality_witness(disk1, gaussian, 1.0)
    rep = forms.check_mean_form(disk1, gaussian, rho, phi)
    assert rep.P == pytest.approx(muBd**2 / muK, rel=1e-12)
    # I = muBd/2 - (muBd/muK) * int |x|^2/2 dmu
    int_half_sq = np.pi * (2 - 3 * np.exp(-0.5))
    I_oracle = muBd / 2 - (muBd / muK) * int_half_sq
    assert rep.I == pytest.approx(I_oracle, rel=1e-10)
    assert rep.slack_mean > 2.0  # about 2.447: far from equality


def test_interior_field_fd_gradient_fallback(disk1, gaussian):
    phi_exact = forms.InteriorField(lambda p: (p**2).sum(axis=-1), lambda p: 2.0 * p)
    phi_fd = forms.InteriorField(lambda p: (p**2).sum(axis=-1))
    a = forms.form_BL(disk1, gaussian, phi_exact, phi_exact)
    b = forms.form_BL(disk1, gaussian, phi_fd, phi_fd)
    assert a == pytest.approx(b, abs=1e-8)
    rep = forms.check_mean_form(disk1, gaussian,
                                forms.BoundaryField.constant(1.0, disk1.M), phi_fd)
    assert rep.flags["bl_gradient_fd"]


def test_boundary_field_analytic_derivative_consistency(rng):
    M = 256
    f = forms.BoundaryField.from_function(lambda t: np.sin(3 * t),
                                          M, dfn=lambda t: 3 * np.cos(3 * t))
    spectral_only = forms.BoundaryField.from_function(lambda t: np.sin(3 * t), M)
    npt.assert_allclose(f.deriv(), spectral_only.deriv(), atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(t=st.floats(min_value=-3.0, max_value=3.0))
def test_scaling_covariance(t):
    body = geometry.disk(1.0)
    u = measure.gaussian_potential()
    rho = forms.BoundaryField.from_function(lambda s: np.cos(2 * s) + 0.2, body.M)
    phi = forms.InteriorField(lambda p: (p**2).sum(axis=-1), lambda p: 2.0 * p)
    P = forms.form_P(body, u, rho, rho)
    I = forms.form_I(body, u, rho, phi)
    Pt = forms.form_P(body, u, t * rho, t * rho)
    It = forms.form_I(body, u, t * rho, phi)
    assert Pt == pytest.approx(t * t * P, rel=1e-10, abs=1e-10)
    assert It == pytest.approx(t * I, rel=1e-10, abs=1e-10)


def test_mean_form_check_reuses_nodes_and_radial_rule(ellipse21, quad14, monkeypatch):
    nodes, rules = [], []
    build_nodes, leggauss = quad.interior_nodes, np.polynomial.legendre.leggauss
    monkeypatch.setattr(quad, "interior_nodes",
                        lambda body, Q=quad.DEFAULT_Q: nodes.append(Q) or build_nodes(body, Q))
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: rules.append(deg) or leggauss(deg))
    quad._radial_rule.cache_clear()
    rng = np.random.default_rng(5)
    forms.check_mean_form(ellipse21, quad14, random_boundary_field(rng, ellipse21.M),
                          random_interior_field(rng))
    assert len(nodes) <= 3
    for k in range(50):
        forms.check_mean_form(ellipse21, quad14, random_boundary_field(rng, ellipse21.M),
                              random_interior_field(rng), Q=(24, 32)[k % 2])
    assert sorted(rules) == [24, 32]
