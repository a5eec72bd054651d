import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexlab import forms, measure, pde
from convexlab.errors import (
    ConvexLabError,
    FlowNotConvex,
    LebesgueModeRestriction,
    NotConvexPotential,
    PinchingViolation,
)


def test_gaussian_basics(gaussian):
    pts = np.array([[1.0, 2.0], [-0.5, 0.25]])
    npt.assert_allclose(gaussian.value(pts), [2.5, 0.15625])
    npt.assert_allclose(gaussian.grad(pts), pts)
    npt.assert_allclose(gaussian.hess(pts), np.broadcast_to(np.eye(2), (2, 2, 2)))
    assert gaussian.pinching == (1.0, 1.0)
    assert gaussian.is_even


def test_quadratic_pinching_and_rejection():
    u = measure.quadratic_potential([[1.0, 0.0], [0.0, 4.0]])
    assert u.pinching == (1.0, 4.0)
    with pytest.raises(NotConvexPotential):
        measure.quadratic_potential([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotConvexPotential):
        measure.quadratic_potential([[1.0, 0.5], [0.0, 1.0]])  # not symmetric


def test_gradient_consistency_of_builtins(gaussian, quad14, quartic, rng):
    pts = rng.normal(size=(50, 2))
    for u in (gaussian, quad14, quartic):
        eg, eh = measure.gradient_consistency(u, pts)
        assert eg < 1e-6 and eh < 1e-6


def test_conjugate_gaussian_self_dual(gaussian, rng):
    y = rng.normal(size=(20, 2))
    val, z = measure.conjugate(gaussian, y)
    npt.assert_allclose(val, 0.5 * (y**2).sum(axis=1), atol=1e-12)
    npt.assert_allclose(z, y, atol=1e-12)


def test_conjugate_quadratic(quad14):
    A = np.array([[1.0, 0.0], [0.0, 4.0]])
    y = np.array([[1.0, 2.0]])
    val, z = measure.conjugate(quad14, y)
    Ainv_y = np.linalg.solve(A, y[0])
    assert val[0] == pytest.approx(0.5 * y[0] @ Ainv_y, abs=1e-12)
    npt.assert_allclose(z[0], Ainv_y, atol=1e-12)


def test_conjugate_quartic_against_grid_search(quartic):
    # brute-force oracle: maximize <y, x> - u(x) on a fine mesh
    y = np.array([1.0, 0.0])
    g = np.linspace(-2, 2, 1201)
    X, Y = np.meshgrid(g, g)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    vals = pts @ y - quartic.value(pts)
    oracle = vals.max()
    val, _ = measure.conjugate(quartic, y)
    assert abs(float(val) - oracle) < 1e-6


def test_conjugate_involution(quartic, rng):
    y = rng.normal(size=(15, 2))
    val1, z1 = measure.conjugate(quartic, y)
    # u**(x) = sup_y <x,y> - u*(y) evaluated by conjugating the conjugate data:
    # grad u(z1) = y, so u(y_orig) should be recovered at points y = grad u(x)
    x = rng.normal(size=(15, 2)) * 0.8
    w = quartic.grad(x)
    val, z = measure.conjugate(quartic, w)
    # Young equality: u*(grad u(x)) = <x, grad u(x)> - u(x)
    young = np.einsum("ij,ij->i", x, w) - quartic.value(x)
    npt.assert_allclose(val, young, atol=1e-10)
    npt.assert_allclose(z, x, atol=1e-8)


def test_conjugate_refused_in_lebesgue_mode(lebesgue):
    with pytest.raises(LebesgueModeRestriction):
        measure.conjugate(lebesgue, np.array([1.0, 0.0]))


def test_double_conjugate_is_involution(quartic, rng):
    # conjugate(u*, y) = (u**(y), grad u**(y)) = (u(y), grad u(y))
    ustar = measure.conjugate_potential(quartic)
    y = rng.normal(size=(12, 2))
    val, z = measure.conjugate(ustar, y)
    npt.assert_allclose(val, quartic.value(y), atol=1e-8)
    npt.assert_allclose(z, quartic.grad(y), atol=1e-8)


def test_flow_at_zero_is_identity(quartic, rng):
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.0], [0.0, 0.2]])
    x = rng.normal(size=(10, 2))
    val, g, H = measure.conjugate_flow(quartic, psi, 0.0, x)
    npt.assert_allclose(val, quartic.value(x), atol=1e-10)
    npt.assert_allclose(g, quartic.grad(x), atol=1e-10)
    npt.assert_allclose(H, quartic.hess(x), atol=1e-8)


def test_flow_homothety_closed_form(gaussian, rng):
    # psi = alpha u* gives u_t(x) = |x|^2 / (2 (1 + t alpha))
    alpha, t = 0.7, 0.4
    psi = measure.ConjugatePerturbation(gaussian, alpha)
    x = rng.normal(size=(12, 2))
    val, g, H = measure.conjugate_flow(gaussian, psi, t, x)
    s = 1 + t * alpha
    npt.assert_allclose(val, 0.5 * (x**2).sum(axis=1) / s, atol=1e-12)
    npt.assert_allclose(g, x / s, atol=1e-12)
    npt.assert_allclose(H, np.broadcast_to(np.eye(2) / s, (12, 2, 2)), atol=1e-12)


def test_flow_quadratic_closed_form(quad14, rng):
    B = np.array([[0.5, 0.1], [0.1, 0.3]])
    psi = measure.QuadraticPerturbation(B=B, b=[0.2, -0.1], c=0.3)
    t = 0.35
    x = rng.normal(size=(9, 2))
    val, g, H = measure.conjugate_flow(quad14, psi, t, x)
    A = np.array([[1.0, 0.0], [0.0, 4.0]])
    Mt = np.linalg.inv(A) + t * B
    Minv = np.linalg.inv(Mt)
    q = x - t * np.array([0.2, -0.1])
    npt.assert_allclose(val, 0.5 * np.einsum("ij,jk,ik->i", q, Minv, q) - t * 0.3,
                        atol=1e-12)
    npt.assert_allclose(H, np.broadcast_to(Minv, (9, 2, 2)), atol=1e-12)


def test_flow_newton_agrees_with_closed_form(gaussian, quad14, rng):
    x = rng.normal(size=(30, 2))
    for u in (gaussian, quad14):
        psi = measure.QuadraticPerturbation(B=[[0.4, 0.1], [0.1, 0.2]], b=[0.1, 0.0])
        for t in (-0.2, 0.15):
            v1, g1, H1 = measure.conjugate_flow(u, psi, t, x, method="closed")
            v2, g2, H2 = measure.conjugate_flow(u, psi, t, x, method="newton")
            npt.assert_allclose(v1, v2, atol=1e-10)
            npt.assert_allclose(g1, g2, atol=1e-10)
            npt.assert_allclose(H1, H2, atol=1e-8)


def test_flow_maximizer_stationarity(quartic, rng):
    # independent check through the conjugate: grad u*(y) + t grad psi(y) = x
    psi = measure.QuadraticPerturbation(B=[[0.2, 0.05], [0.05, 0.1]], b=[0.05, 0.1])
    t = 0.25
    x = rng.normal(size=(20, 2)) * 0.8
    _, y, _ = measure.conjugate_flow(quartic, psi, t, x)
    _, z = measure.conjugate(quartic, y)
    resid = z + t * psi.grad(y) - x
    assert np.abs(resid).max() < 1e-10


def test_flow_not_convex_detection(gaussian):
    psi = measure.QuadraticPerturbation(B=[[-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(FlowNotConvex):
        measure.conjugate_flow(gaussian, psi, 1.5, np.array([[0.2, 0.1]]))
    psi_c = measure.ConjugatePerturbation(gaussian, 1.0)
    with pytest.raises(FlowNotConvex):
        measure.conjugate_flow(gaussian, psi_c, -1.5, np.array([[0.2, 0.1]]))


def test_flow_derivative_formulas(gaussian, rng):
    x = rng.normal(size=(8, 2))
    # psi = u*: u'_0(x) = -u*(grad u(x)) = -|x|^2/2
    psi = measure.ConjugatePerturbation(gaussian, 1.0)
    d1, d2 = measure.flow_derivatives(gaussian, psi, 0.0, x)
    npt.assert_allclose(d1, -0.5 * (x**2).sum(axis=1), atol=1e-12)
    # psi linear <b, .>: u_t = u(x - t b), so u''_0 = <hess u b, b> = +|b|^2
    # for the gaussian (t-convexity of the flow forces the + sign)
    b = np.array([0.7, -0.2])
    psi_lin = measure.QuadraticPerturbation(b=b)
    _, d2lin = measure.flow_derivatives(gaussian, psi_lin, 0.0, x)
    npt.assert_allclose(d2lin, b @ b, atol=1e-12)


@pytest.mark.parametrize("ukind,psikind", [
    ("gaussian", "quadratic"), ("quad14", "conjugate"), ("quartic", "quadratic")])
def test_flow_derivatives_match_finite_differences(ukind, psikind, gaussian,
                                                   quad14, quartic, rng):
    u = {"gaussian": gaussian, "quad14": quad14, "quartic": quartic}[ukind]
    if psikind == "quadratic":
        psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
    else:
        psi = measure.ConjugatePerturbation(u, 0.5)
    x = rng.normal(size=(6, 2)) * 0.7
    t0 = 0.05
    d1, d2 = measure.flow_derivatives(u, psi, t0, x)
    h = 1e-4
    vp, _, _ = measure.conjugate_flow(u, psi, t0 + h, x)
    vm, _, _ = measure.conjugate_flow(u, psi, t0 - h, x)
    v0, _, _ = measure.conjugate_flow(u, psi, t0, x)
    fd1 = (vp - vm) / (2 * h)
    fd2 = (vp - 2 * v0 + vm) / h**2
    npt.assert_allclose(d1, fd1, rtol=1e-6, atol=1e-8)
    npt.assert_allclose(d2, fd2, rtol=1e-4, atol=1e-4)


def test_weighted_mean_curvature(disk1, gaussian, lebesgue):
    h = measure.weighted_mean_curvature(disk1, gaussian)
    npt.assert_allclose(h, 0.0, atol=1e-12)
    from convexlab.geometry import disk

    d2 = disk(2.0)
    npt.assert_allclose(measure.weighted_mean_curvature(d2, gaussian),
                        0.5 - 2.0, atol=1e-12)
    npt.assert_allclose(measure.weighted_mean_curvature(disk1, lebesgue), 1.0,
                        atol=1e-12)
    # pointwise variant agrees with the grid
    assert measure.weighted_mean_curvature(d2, gaussian, theta=0.3) == pytest.approx(
        -1.5, abs=1e-10)


def test_pinching_verification(quartic, rng):
    pts = rng.normal(size=(40, 2))
    wrong = measure.even_quartic_potential(0.1, pinching=(1.0, 1.0))
    with pytest.raises(PinchingViolation):
        measure.verify_pinching(wrong, pts * 3.0)
    ok = measure.even_quartic_potential(0.0, pinching=(1.0, 1.0))
    measure.verify_pinching(ok, pts)  # no raise


def test_pinching_verification_rejects_empty_point_set(quad14):
    assert quad14.pinching is not None
    with pytest.raises(ConvexLabError, match="no points to check"):
        measure.verify_pinching(quad14, np.zeros((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pinching_verification_rejects_non_finite_hessian(bad, rng):
    pts = rng.normal(size=(40, 2))
    u = measure.Potential("broken", lambda p: np.zeros(len(p)), lambda p: np.zeros(p.shape),
                          lambda p: np.full((len(p), 2, 2), bad), pinching=(1.0, 2.0))
    with pytest.raises(PinchingViolation):
        measure.verify_pinching(u, pts)


def test_translate_and_shift(gaussian, rng):
    v = np.array([0.3, -0.1])
    ut = measure.translate_potential(gaussian, v)
    pts = rng.normal(size=(10, 2))
    npt.assert_allclose(ut.value(pts), gaussian.value(pts - v), atol=1e-14)
    assert not ut.is_even
    us = measure.shift_potential(gaussian, 2.0)
    npt.assert_allclose(us.value(pts), gaussian.value(pts) + 2.0, atol=1e-14)


def test_shifted_flow_closed_form_keeps_constant(gaussian, quad14, rng):
    # (u + c)* = u* - c, so the flowed potential of u + c is u_t + c
    x = rng.normal(size=(30, 2))
    psi = measure.QuadraticPerturbation(B=[[0.4, 0.1], [0.1, 0.2]], b=[0.1, 0.0], c=0.3)
    for u in (gaussian, quad14):
        us = measure.shift_potential(measure.shift_potential(u, 0.5), 0.2)
        v1, g1, H1 = measure.conjugate_flow(us, psi, 0.1, x, method="closed")
        v2, g2, H2 = measure.conjugate_flow(us, psi, 0.1, x, method="newton")
        npt.assert_allclose(v1, v2, atol=1e-10)
        npt.assert_allclose(g1, g2, atol=1e-10)
        npt.assert_allclose(H1, H2, atol=1e-8)


@pytest.mark.parametrize("derive", [
    lambda u: measure.translate_potential(u, [0.2, -0.1]),
    lambda u: measure.shift_potential(u, 0.7),
], ids=["translated", "shifted"])
def test_derived_zero_potential_stays_lebesgue_restricted(disk1, lebesgue, derive):
    u = derive(lebesgue)
    phi = forms.InteriorField.coordinate(0)
    with pytest.raises(LebesgueModeRestriction):
        forms.form_BL(disk1, u, phi, phi)
    with pytest.raises(LebesgueModeRestriction):
        pde.concavity_power(disk1, u)


def test_make_potential_dispatch():
    u = measure.make_potential({"kind": "quadratic", "A": [[2.0, 0.0], [0.0, 1.0]]})
    assert u.pinching == (1.0, 2.0)
    with pytest.raises(ValueError):
        measure.make_potential({"kind": "entropic"})


@settings(max_examples=30, deadline=None)
@given(x1=st.floats(-2, 2), x2=st.floats(-2, 2))
def test_young_equality_everywhere(x1, x2):
    u = measure.even_quartic_potential(0.05)
    x = np.array([x1, x2])
    g = u.grad(x)
    val, z = measure.conjugate(u, g)
    assert abs(float(val) - (float(x @ g) - float(u.value(x)))) < 1e-10
