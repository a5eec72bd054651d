import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexlab import flow, forms, measure, pde, quad
from convexlab.errors import (
    ConvexLabError,
    FlowNotConvex,
    LebesgueModeRestriction,
    NewtonDivergence,
    NotConvexPotential,
    PinchingViolation,
)
from test_kernels import _matmul_2x2  # the stacked reference of the flow Jacobian
from test_kernels import _same_bits, _signed_zeros


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


def test_gradient_consistency_of_builtins(gaussian, quad14, quartic, lebesgue, rng):
    pts = rng.normal(size=(50, 2))
    for u in (gaussian, quad14, quartic, lebesgue):
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
    npt.assert_allclose(g, np.einsum("jk,ik->ij", Minv, q), atol=1e-12)
    npt.assert_allclose(H, np.broadcast_to(Minv, (9, 2, 2)), atol=1e-12)


def _reference_closed_quadratic_flow(u, psi, t, p):
    """The quadratic closed form written out: (value, grad, hess) of u_t on an (m, 2) p."""
    Minv = np.linalg.inv(np.linalg.inv(u._hess(np.zeros((1, 2)))[0]) + t * psi.B)
    tb = t * psi.b
    const = u._value(np.zeros((1, 2)))[0] - t * psi.c
    q = np.empty_like(p)
    q[:, 0] = p[:, 0] - tb[0]
    q[:, 1] = p[:, 1] - tb[1]
    return (0.5 * measure._qform(q, Minv, q) + const, (p - tb) @ Minv.T,
            np.broadcast_to(Minv, (len(p), 2, 2)).copy())


@pytest.mark.parametrize("t", [-0.15, 0.15])
@pytest.mark.parametrize("shift", [None, 0.7])
@pytest.mark.parametrize("name", ["gaussian", "quad14"])
def test_closed_quadratic_flow_keeps_the_written_out_bytes(gaussian, quad14, name, shift, t):
    u = {"gaussian": gaussian, "quad14": quad14}[name]
    u = u if shift is None else measure.shift_potential(u, shift)
    psi = measure.QuadraticPerturbation(B=[[0.4, 0.1], [0.1, 0.2]], b=[0.1, -0.3], c=0.3)
    u_t = measure.flow_potential(u, psi, t)
    rng = np.random.default_rng(36)
    for m in (1, 2, 3, 257):  # _qform sums stacks of one or two rows apart
        p = _signed_zeros(rng, rng.standard_normal((m, 2)), 0.2)
        want = _reference_closed_quadratic_flow(u, psi, t, p)
        for got, ref in zip((u_t.value(p), u_t.grad(p), u_t.hess(p)), want):
            _same_bits(ref, got)
        for got, ref in zip(measure.conjugate_flow(u, psi, t, p, method="closed"), want):
            _same_bits(ref, got)


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


def test_closed_flow_method_without_a_closed_form_raises(quartic):
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]])
    with pytest.raises(ValueError, match=r"^no closed-form path for this \(u, psi\) pair$"):
        measure.conjugate_flow(quartic, psi, 0.05, np.zeros((2, 2)), method="closed")


def flow_derivatives(u, psi, t, x, method="auto"):
    """Pointwise t-derivatives of the flow:

        u_t'(x)  = -psi(grad u_t(x))
        u_t''(x) = +<hess u_t(x) grad psi(grad u_t(x)), grad psi(grad u_t(x))>

    The second derivative is nonnegative by structure: u_t(x) is a supremum
    of affine functions of t, hence convex in t.  (Differentiating the
    stationarity condition grad u*(y) + t grad psi(y) = x gives
    dy/dt = -hess u_t(x) grad psi(y) and u_t'' = -<grad psi, dy/dt>.)
    """
    _, g, H = measure.conjugate_flow(u, psi, t, x, method=method)
    flatg, lead = measure._flatten(g)
    first = -psi.value(flatg)
    gp = psi.grad(flatg)
    second = measure._hgg(measure._entries(H.reshape(-1, 2, 2)), gp, gp)
    return first.reshape(lead), second.reshape(lead)


@pytest.mark.parametrize("entry", [measure.conjugate_flow, flow_derivatives])
def test_unknown_flow_method_raises(gaussian, entry):
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]])
    with pytest.raises(ValueError, match="^unknown flow method 'clsoed': expected 'auto', "
                                         "'newton' or 'closed'$"):
        entry(gaussian, psi, 0.05, np.zeros((2, 2)), method="clsoed")


@pytest.mark.parametrize("entry", [
    lambda u, psi, t: measure.conjugate_flow(u, psi, t, np.zeros((2, 2))),
    measure.flow_potential,
], ids=["conjugate_flow", "flow_potential"])
def test_flow_entries_refuse_a_nan_t_and_the_zero_potential_alike(gaussian, lebesgue, entry):
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]])
    with pytest.raises(ConvexLabError, match=r"^the conjugate flow needs a finite t, "
                                             r"got t = nan$") as info:
        entry(gaussian, psi, np.nan)
    assert type(info.value) is ConvexLabError
    # the potential is checked before t
    with pytest.raises(LebesgueModeRestriction, match="^the conjugate flow requires a "
                                                      "strictly convex potential; u == 0"):
        entry(lebesgue, psi, np.nan)


def test_flow_derivative_formulas(gaussian, rng):
    x = rng.normal(size=(8, 2))
    # psi = u*: u'_0(x) = -u*(grad u(x)) = -|x|^2/2
    psi = measure.ConjugatePerturbation(gaussian, 1.0)
    d1, d2 = flow_derivatives(gaussian, psi, 0.0, x)
    npt.assert_allclose(d1, -0.5 * (x**2).sum(axis=1), atol=1e-12)
    # psi linear <b, .>: u_t = u(x - t b), so u''_0 = <hess u b, b> = +|b|^2
    # for the gaussian (t-convexity of the flow forces the + sign)
    b = np.array([0.7, -0.2])
    psi_lin = measure.QuadraticPerturbation(b=b)
    _, d2lin = flow_derivatives(gaussian, psi_lin, 0.0, x)
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
    d1, d2 = flow_derivatives(u, psi, t0, x)
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


def test_pinching_verification(quartic, rng):
    pts = rng.normal(size=(40, 2))
    wrong = measure.make_potential({"kind": "even-quartic", "eps": 0.1, "pinching": (1.0, 1.0)})
    with pytest.raises(PinchingViolation):
        measure.verify_pinching(wrong, pts * 3.0)
    ok = measure.make_potential({"kind": "even-quartic", "eps": 0.0, "pinching": (1.0, 1.0)})
    measure.verify_pinching(ok, pts)  # no raise


def test_pinching_verification_accepts_a_turned_isotropic_potential(rng):
    # R R^T is the identity up to rounding, and so are the declared k1 and k2.
    # tr^2 - 4 det cancelled to ~1e-15 there, and its square root put the
    # smaller eigenvalue 1.6e-8 below k1: the potential failed its own pinching.
    phi = 2.0 * np.pi * 41 / 256
    R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    A = R @ R.T
    measure.verify_pinching(measure.quadratic_potential(0.5 * (A + A.T)),
                            rng.normal(size=(40, 2)))  # no raise


def test_pinching_verification_rejects_empty_point_set(quad14):
    assert quad14.pinching is not None
    with pytest.raises(ConvexLabError, match="no points to check"):
        measure.verify_pinching(quad14, np.zeros((0, 2)))


def test_pinching_verification_without_declared_constants_checks_nothing(quartic):
    # only a declared pinching is checked, so no point set is needed
    assert quartic.pinching is None
    assert measure.verify_pinching(quartic, np.zeros((0, 2))) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pinching_verification_rejects_non_finite_hessian(bad, rng):
    pts = rng.normal(size=(40, 2))
    u = measure.Potential("broken", lambda p: np.zeros(len(p)), lambda p: np.zeros(p.shape),
                          lambda p: np.full((len(p), 2, 2), bad), pinching=(1.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal is the only signal, no numpy warning
        with pytest.raises(PinchingViolation, match=r"^min Hessian eigenvalue nan < declared "
                                                    r"k1 = 1$"):
            measure.verify_pinching(u, pts)


def test_translate_and_shift(gaussian, rng):
    v = np.array([0.3, -0.1])
    ut = measure.translate_potential(gaussian, v)
    pts = rng.normal(size=(10, 2))
    npt.assert_allclose(ut.value(pts), gaussian.value(pts - v), atol=1e-14)
    assert not ut.is_even
    us = measure.shift_potential(gaussian, 2.0)
    npt.assert_allclose(us.value(pts), gaussian.value(pts) + 2.0, atol=1e-14)


@pytest.mark.parametrize("v", [[0.3, -0.1], [0.0, -0.0], [-0.0, 0.25]])
def test_translation_is_evaluation_at_p_minus_v_bytes(gaussian, quad14, quartic, v):
    # the column-wise p - v of translate_potential rounds as the broadcast does
    rng = np.random.default_rng(7)
    p = _signed_zeros(rng, rng.standard_normal((3, 50, 2)), 0.3)
    for u in (gaussian, quad14, quartic):
        ut = measure.translate_potential(u, v)
        q = p - np.asarray(v)
        for method in ("value", "grad", "hess"):
            _same_bits(getattr(u, method)(q), getattr(ut, method)(p))


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


@pytest.mark.parametrize("desc, says", [
    ({"kind": "gaussian", "eps": 0.3}, "'eps'"),
    ({"kind": "zero", "A": [[1, 0], [0, 1]]}, "'A'"),
    ({"kind": "quadratic", "A": [[1, 0], [0, 4]], "eps": 0.1}, "'eps'"),
    ({"kind": "even-quartic", "eps": 0.1, "A": [[1, 0], [0, 1]]}, "'A'"),
    ({"kind": "quadratic"}, "needs its matrix A"),
    ({"eps": 0.1}, "unknown potential kind None"),
    ({"kind": "gaussian", "pinching": (0.5, None)}, "both constants"),
    ({"kind": "gaussian", "pinching": (2.0, 1.0)}, "0 < k1 <= k2"),
], ids=["gaussian-eps", "zero-A", "quadratic-eps", "quartic-A", "quadratic-without-A",
        "no-kind", "k1-without-k2", "k1-above-k2"])
def test_make_potential_rejects_what_its_kind_does_not_read(desc, says):
    with pytest.raises(ValueError, match=says):
        measure.make_potential(desc)


@pytest.mark.parametrize("desc", [
    {"kind": "gaussian"},
    {"kind": "quadratic", "A": [[1, 0], [0, 4]]},
    {"kind": "even-quartic", "eps": 0.1},
], ids=lambda desc: desc["kind"])
def test_make_potential_takes_pinching_for_every_kind(desc):
    # but zero's: its Hessian 0 is below any k1 > 0 (tests/test_errors.py)
    u = measure.make_potential({**desc, "pinching": (0.5, 8)})
    assert u.pinching == (0.5, 8.0)
    plain = measure.make_potential(desc)
    assert (u.kind, u.descriptor, u.is_even) == (plain.kind, plain.descriptor, plain.is_even)
    pts = np.array([[0.3, -0.2], [1.0, 0.5]])
    for method in ("value", "grad", "hess"):
        assert np.array_equal(getattr(u, method)(pts), getattr(plain, method)(pts))


@settings(max_examples=30, deadline=None)
@given(x1=st.floats(-2, 2), x2=st.floats(-2, 2))
def test_young_equality_everywhere(x1, x2):
    u = measure.even_quartic_potential(0.05)
    x = np.array([x1, x2])
    g = u.grad(x)
    val, z = measure.conjugate(u, g)
    assert abs(float(val) - (float(x @ g) - float(u.value(x)))) < 1e-10


# -- the Newton loops against the loops they replaced ------------------------------


def _reference_conjugate_newton(u, y):
    """The conjugate Newton that gathered its active set afresh every iteration."""
    z = y.copy()
    m = len(y)
    active = np.ones(m, dtype=bool)
    tol = measure.NEWTON_TOL * (1.0 + np.hypot(y[:, 0], y[:, 1]))
    for _ in range(measure.NEWTON_CAP):
        idx = np.flatnonzero(active)
        zi, yi = z[idx], y[idx]
        g = u._grad(zi) - yi
        err = np.hypot(g[:, 0], g[:, 1])
        done = err <= tol[idx]
        active[idx[done]] = False
        if done.all():
            break
        keep = ~done
        idx, zi, yi, g = idx[keep], zi[keep], yi[keep], g[keep]
        h = measure._entries(u._hess(zi))
        if not measure._spd_entries(*h).all():
            raise NotConvexPotential("Hessian lost positive definiteness during conjugation")
        d = -measure._solve_entries(*h, g)
        q0 = u._value(zi) - measure._dot2(yi, zi)
        gd = measure._dot2(g, d)
        floor = 1e-14 * (np.abs(q0) + 1.0)
        step = np.ones(len(idx))
        pending = np.ones(len(idx), dtype=bool)
        for _ in range(60):
            zt = zi + step[:, None] * d
            qt = u._value(zt) - measure._dot2(yi, zt)
            ok = qt <= q0 + measure.ARMIJO * step * gd + floor
            pending &= ~ok
            if not pending.any():
                break
            step[pending] *= 0.5
        z[idx] = zi + step[:, None] * d
    if active.any():
        raise NewtonDivergence(
            f"conjugate Newton failed to converge for {int(active.sum())} point(s)")
    val = measure._dot2(y, z) - u._value(z)
    return val, z


def _reference_flow_newton(u, psi, t, x):
    """The flow Newton that gathered its active set afresh every iteration and
    evaluated the residual again at the point its line search had accepted."""
    z = x.copy()
    m = len(x)
    active = np.ones(m, dtype=bool)
    scale = 1.0 + np.abs(x).max()
    for _ in range(measure.NEWTON_CAP):
        idx = np.flatnonzero(active)
        zi, xi = z[idx], x[idx]
        y = u._grad(zi)
        R = zi + t * psi.grad(y) - xi
        err = np.hypot(R[:, 0], R[:, 1])
        done = err <= measure.NEWTON_TOL * scale
        active[idx[done]] = False
        if done.all():
            break
        keep = ~done
        idx, zi, xi, R = idx[keep], zi[keep], xi[keep], R[keep]
        y = y[keep]
        J = t * _matmul_2x2(psi.hess(y), u._hess(zi))
        J[:, 0, 0] += 1.0
        J[:, 1, 1] += 1.0
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        if np.any(np.abs(det) < 1e-14):
            raise FlowNotConvex("flow Jacobian became singular; t is past the window")
        d = -measure._solve_entries(*measure._entries(J), R)
        phi0 = 0.5 * err[keep] ** 2
        floor = 0.5 * (1e-14 * scale) ** 2
        step = np.ones(len(idx))
        pending = np.ones(len(idx), dtype=bool)
        for _ in range(60):
            zt = zi + step[:, None] * d
            Rt = zt + t * psi.grad(u._grad(zt)) - xi
            phit = 0.5 * measure._dot2(Rt, Rt)
            ok = phit <= (1.0 - 2.0 * measure.ARMIJO * step) * phi0 + floor
            pending &= ~ok
            if not pending.any():
                break
            step[pending] *= 0.5
        z[idx] = zi + step[:, None] * d
    if active.any():
        raise NewtonDivergence(
            f"flow Newton failed to converge for {int(active.sum())} point(s)")
    y = u._grad(z)
    Hdual = measure._inv_2x2(u._hess(z)) + t * psi.hess(y)
    if not measure._spd_entries(*measure._entries(Hdual)).all():
        raise FlowNotConvex("u* + t*psi is not strictly convex at the maximizer")
    val = measure._dot2(x - z, y) + u._value(z) - t * psi.value(y)
    return val, y, measure._inv_2x2(Hdual)


def _flow_newton_with_hessian(u, psi, t, x):
    """_flow_newton's value and gradient, and hess u_t = A^{-1} from its A."""
    val, y, A = measure._flow_newton(u, psi, t, x)
    return val, y, measure._stack(*measure._inv_entries(*A))


def _outcome(fn, *args):
    """The bytes of every output array, or the type and message of the error."""
    try:
        return [a.tobytes() for a in fn(*args)]
    except Exception as exc:
        return type(exc).__name__, str(exc)


_QUAD14 = measure.quadratic_potential([[1.0, 0.0], [0.0, 4.0]])
_QUARTIC = measure.even_quartic_potential(0.1)
_POTENTIALS = {
    "gaussian": measure.gaussian_potential(),
    "quad14": _QUAD14,
    "quad_mixed": measure.quadratic_potential([[2.0, 0.6], [0.6, 1.0]]),
    "quartic": _QUARTIC,
    "translated": measure.translate_potential(_QUARTIC, [0.15, -0.1]),
    "shifted": measure.shift_potential(_QUAD14, 0.7),
}

_PSI = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
_T = 0.05

# 0-3 points reach the kernels' one- and two-row paths; larger clouds the rest
_cloud_sizes = st.one_of(st.integers(0, 3), st.integers(4, 3000))


def _cloud(seed, n, radius):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2)) * radius
    if n > 4:
        x[rng.integers(n)] = 0.0  # a point already at its solution
    return x


@settings(max_examples=60, deadline=None)
@given(pot=st.sampled_from(sorted(_POTENTIALS)), n=_cloud_sizes,
       seed=st.integers(0, 2**32 - 1), radius=st.floats(0.05, 3.0))
def test_conjugate_newton_matches_reference_bytes(pot, n, seed, radius):
    u = _POTENTIALS[pot]
    y = _cloud(seed, n, radius)
    assert (_outcome(measure._conjugate_newton, u, y)
            == _outcome(_reference_conjugate_newton, u, y))


@settings(max_examples=60, deadline=None)
@given(pot=st.sampled_from(sorted(_POTENTIALS)), n=_cloud_sizes,
       seed=st.integers(0, 2**32 - 1), radius=st.floats(0.05, 1.5),
       t=st.floats(-0.1, 0.1), dual=st.sampled_from(["quadratic", "conjugate"]))
def test_flow_newton_matches_reference_bytes(pot, n, seed, radius, t, dual):
    u = _POTENTIALS[pot]
    if dual == "quadratic":
        psi = _PSI
    else:
        # a different base keeps the homothety closed form out of reach
        base = _POTENTIALS["quad_mixed" if pot == "gaussian" else "gaussian"]
        psi = measure.ConjugatePerturbation(base, 0.8)
    x = _cloud(seed, n, radius)
    got = _outcome(_flow_newton_with_hessian, u, psi, t, x)
    if n == 0:
        assert got == [np.zeros(0).tobytes(), np.zeros((0, 2)).tobytes(),
                       np.zeros((0, 2, 2)).tobytes()]
    else:
        assert got == _outcome(_reference_flow_newton, u, psi, t, x)


@settings(max_examples=40, deadline=None)
@given(pot=st.sampled_from(sorted(_POTENTIALS)), n=_cloud_sizes,
       seed=st.integers(0, 2**32 - 1), radius=st.floats(0.05, 1.5), t=st.floats(-0.1, 0.1),
       alpha=st.floats(0.1, 1.0), base=st.sampled_from(["quartic", "quad_mixed", "translated"]),
       lead=st.sampled_from([None, (1, -1), (3, -1)]), zeros=st.booleans())
def test_flow_newton_with_a_conjugate_psi_matches_reference_bytes(pot, n, seed, radius, t,
                                                                   alpha, base, lead, zeros):
    # psi = alpha*v* has a Hessian that varies by point, so the Newton direction
    # and the dual Hessian read it entry by entry from psi.hess; flat clouds and
    # (Q, M, 2) stacks, with signed zeros, keep the reference's bytes
    u = _POTENTIALS[pot]
    if base == pot:
        base = "gaussian"  # psi.base is u would take the homothety closed form
    psi = measure.ConjugatePerturbation(_POTENTIALS[base], alpha)
    x = _cloud(seed, n, radius)
    if zeros and n:
        x[::3, 1] = -0.0
        x[1::4] = [-0.0, 0.0]
    want = _outcome(_reference_flow_newton, u, psi, t, x) if n else [
        np.zeros(0).tobytes(), np.zeros((0, 2)).tobytes(), np.zeros((0, 2, 2)).tobytes()]
    assert _outcome(_flow_newton_with_hessian, u, psi, t, x) == want
    if lead is not None and n % lead[0] == 0 and not isinstance(want, tuple):
        stacked = x.reshape(lead[0], -1, 2)
        got = measure.flow_potential(u, psi, t).value(stacked)
        assert got.shape == stacked.shape[:-1] and got.tobytes() == want[0]


@pytest.mark.parametrize("t", [-0.07, -0.01, 0.01, 0.07])
@pytest.mark.parametrize("pot", ["gaussian", "quad14", "quartic"])
def test_flow_newton_keeps_signed_zeros_on_the_axes_bytes(pot, t):
    # with a diagonal B and even u, a point on an axis keeps an exact zero
    # coordinate through every Newton step: the Jacobian's off-diagonal
    # entries and the step's component there are signed zeros, and their
    # signs reach z and grad u_t
    u = _POTENTIALS[pot]
    r = np.linspace(0.1, 1.2, 6)
    zero = np.zeros_like(r)
    x = np.concatenate([np.stack(pair, axis=1) for pair in (
        (-zero, r), (zero, -r), (r, -zero), (-r, zero), (-zero, -r), (-r, -zero))])
    for b in ([0.0, 0.1], [0.1, 0.0], [0.0, -0.0]):
        psi = measure.QuadraticPerturbation(B=[[0.3, 0.0], [0.0, 0.2]], b=b)
        assert (_outcome(_flow_newton_with_hessian, u, psi, t, x)
                == _outcome(_reference_flow_newton, u, psi, t, x))


def _misfit_quad14(wrong, stretch, t=_T):
    """quad14 whose Hessian disagrees with its gradient where wrong(z) holds.

    There the flow Jacobian I + t B H (with _PSI) is the true one
    divided by ``stretch``, so the Newton direction is ``stretch`` times the
    true one.  With stretch 3 the line search accepts its second pass.  With
    stretch -1e6 the direction climbs the residual merit: the line search
    rejects all 60 halvings, and z still moves by 2^-60 of that direction,
    far more than an ulp.
    """
    tB = t * _PSI.B
    true_J = np.eye(2) + tB @ np.diag([1.0, 4.0])
    bad = np.linalg.solve(tB, true_J / stretch - np.eye(2))

    def hess(p):
        out = _QUAD14._hess(p)
        out[wrong(p)] = bad
        return out

    return measure.Potential("quadratic", _QUAD14._value, _QUAD14._grad, hess)


def _at_rows(x):
    """Predicate: z equals one of the rows of x, where the flow Newton starts."""
    start = {row.tobytes() for row in x}
    return lambda p: np.array([row.tobytes() in start for row in p], dtype=bool)


def _line_search_passes(u, x, t=_T):
    """Passes of each line search of _flow_newton(u, _PSI, t, x).

    Each iteration takes one Hessian, then its line search takes one gradient
    per pass (a search that runs out makes 60).
    """
    runs = [0]

    def grad(p):
        runs[-1] += 1
        return u._grad(p)

    def hess(p):
        runs.append(0)
        return u._hess(p)

    counted = measure.Potential(u.kind, u._value, grad, hess)
    try:
        measure._flow_newton(counted, _PSI, t, x)
    except NewtonDivergence:
        return runs[1:]  # runs[0] is the first residual
    # on convergence, grad u(z) and the Hessian at the end close the list
    return runs[1:-2] + [runs[-2] - 1]


def test_flow_newton_recovers_after_an_exhausted_line_search(rng):
    # the Hessian is wrong only at the cloud's own points, where Newton starts:
    # the first line search runs out, and the next iterate must be evaluated
    # afresh rather than read from the last rejected trial
    x = rng.normal(size=(40, 2)) * 0.6
    u = _misfit_quad14(_at_rows(x), -1e6)
    assert _line_search_passes(u, x)[0] >= 60
    got = _outcome(_flow_newton_with_hessian, u, _PSI, _T, x)
    assert got == _outcome(_reference_flow_newton, u, _PSI, _T, x)
    assert len(got) == 3  # every point converged


def test_flow_newton_one_straggler_matches_reference_bytes(rng):
    # one point of each cloud needs a second line-search pass, which it takes
    # alone, and then lags the rest by a Newton step, which it also takes
    # alone.  psi.grad's ``@`` rounds a one-row array apart from a longer one,
    # so the row must reach each kernel in an array of the same length as in
    # the reference; t = 1 makes that rounding show in z.
    for _ in range(16):
        x = rng.normal(size=(20, 2)) * 0.6
        u = _misfit_quad14(_at_rows(x[rng.integers(20)][None]), 3.0, t=1.0)
        assert _line_search_passes(u, x, t=1.0) == [2, 1]
        assert (_outcome(_flow_newton_with_hessian, u, _PSI, 1.0, x)
                == _outcome(_reference_flow_newton, u, _PSI, 1.0, x))


def test_newton_straggler_runs_alone_matches_reference_bytes(rng):
    # one far point takes two half steps while z_0 > edge (there its Hessian
    # is doubled, or its flow Jacobian halved), so it still needs a full
    # Newton step after the rest of the cloud has finished, and takes it
    # alone.  One-row arrays take their own BLAS path in ``@``, so the point
    # must not be carried along in the full-length arrays.
    mixed = _POTENTIALS["quad_mixed"]
    for k in range(12):
        far_point = [7.8 + 0.15 * k, 0.05 * k]
        x = np.vstack([rng.normal(size=(19, 2)) * 0.6, [far_point]])
        edge = far_point[0] - 1.2
        u = _misfit_quad14(lambda p: p[:, 0] > edge, 0.5, t=1.0)
        assert _line_search_passes(u, x, t=1.0) == [1, 1, 1]
        assert (_outcome(_flow_newton_with_hessian, u, _PSI, 1.0, x)
                == _outcome(_reference_flow_newton, u, _PSI, 1.0, x))

        def hess(p):
            out = mixed._hess(p)
            out[p[:, 0] > edge - 1.0] *= 2.0
            return out

        v = measure.Potential("quadratic", mixed._value, mixed._grad, hess)
        got = _outcome(measure._conjugate_newton, v, x)
        assert len(got) == 2
        assert got == _outcome(_reference_conjugate_newton, v, x)


def test_conjugate_newton_names_an_indefinite_hessian(rng):
    # quad14 with the Hessian entry 4 flipped to -1: the first direction, at
    # the start rows z = y, already meets an indefinite Hessian
    def hess(p):
        out = _QUAD14._hess(p)
        out[:, 1, 1] = -1.0
        return out

    v = measure.Potential("quadratic", _QUAD14._value, _QUAD14._grad, hess)
    y = rng.normal(size=(10, 2))
    got = _outcome(measure._conjugate_newton, v, y)
    assert got == ("NotConvexPotential", "Hessian lost positive definiteness during conjugation")
    assert got == _outcome(_reference_conjugate_newton, v, y)
    with pytest.raises(NotConvexPotential, match="lost positive definiteness"):
        measure.conjugate(v, y)


def test_newton_divergence_counts_the_stuck_points(rng):
    # flow: the Hessian is wrong on the half-plane z_0 > 0, so the points that
    # start there exhaust every line search and never converge
    x = rng.normal(size=(30, 2)) * 0.5
    x[:, 0] = np.where(x[:, 0] > 0, x[:, 0] + 0.2, x[:, 0] - 0.2)
    stuck = int((x[:, 0] > 0).sum())
    u = _misfit_quad14(lambda p: p[:, 0] > 0, -1e6)
    assert max(_line_search_passes(u, x)) >= 60
    got = _outcome(_flow_newton_with_hessian, u, _PSI, _T, x)
    assert got == ("NewtonDivergence", f"flow Newton failed to converge for {stuck} point(s)")
    assert got == _outcome(_reference_flow_newton, u, _PSI, _T, x)

    # conjugate: the value (NaN on z_0 > 0) disagrees with the gradient, so
    # no trial point passes the Armijo test there
    def value(p):
        return np.where(p[:, 0] > 0, np.nan, _QUAD14._value(p))

    v = measure.Potential("quadratic", value, _QUAD14._grad, _QUAD14._hess)
    got = _outcome(measure._conjugate_newton, v, x)
    assert got == ("NewtonDivergence", f"conjugate Newton failed to converge for {stuck} point(s)")
    assert got == _outcome(_reference_conjugate_newton, v, x)


def test_flow_newton_evaluates_fewer_gradient_rows(blob, quartic):
    x = quad.interior_nodes(blob)[0].reshape(-1, 2)
    rows = []

    def grad(p):
        rows.append(len(p))
        return quartic._grad(p)

    counted = measure.Potential("even-quartic", quartic._value, grad, quartic._hess)
    new = _flow_newton_with_hessian(counted, _PSI, _T, x)
    new_rows, rows[:] = sum(rows), []
    ref = _reference_flow_newton(counted, _PSI, _T, x)
    assert [a.tobytes() for a in new] == [a.tobytes() for a in ref]
    assert new_rows < sum(rows)


def test_newton_flow_path_on_empty_input(quartic):
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]])
    empty = np.zeros((0, 2))
    val, g, H = measure.conjugate_flow(quartic, psi, 0.05, empty)
    assert val.shape == (0,) and g.shape == (0, 2) and H.shape == (0, 2, 2)
    assert measure.flow_potential(quartic, psi, 0.05).value(empty).shape == (0,)
    d1, d2 = flow_derivatives(quartic, psi, 0.05, empty)
    assert d1.shape == d2.shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_newton_loops_name_non_finite_input(quartic, bad):
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]])
    x = np.array([[0.3, 0.1], [bad, 0.0], [0.2, -0.4]])
    with pytest.raises(ConvexLabError, match=r"non-finite point\(s\)") as info:
        measure.conjugate_flow(quartic, psi, 0.05, x)
    assert type(info.value) is ConvexLabError
    assert "1 non-finite point(s)" in str(info.value) and "row 1" in str(info.value)
    with pytest.raises(ConvexLabError, match="non-finite") as info:
        measure.conjugate(quartic, [[bad, 0.0]])
    assert type(info.value) is ConvexLabError


def _flow_pairs(gaussian, quartic):
    quad_psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]])
    return {"closed quadratic": (gaussian, quad_psi),
            "closed conjugate": (gaussian, measure.ConjugatePerturbation(gaussian, 0.7)),
            "newton": (quartic, quad_psi),
            "no psi": (gaussian, None)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("path", ["closed quadratic", "closed conjugate", "newton", "no psi"])
def test_flow_rejects_non_finite_t_before_any_work(gaussian, quartic, disk1, monkeypatch,
                                                   bad, path):
    u, psi = _flow_pairs(gaussian, quartic)[path]

    def no_work(*args, **kwargs):
        raise AssertionError("flow work started for a non-finite t")

    monkeypatch.setattr(measure, "_flow_closed_form", no_work)
    monkeypatch.setattr(measure, "_flow_newton", no_work)
    x = np.array([[0.3, 0.1], [0.2, -0.4]])
    f = forms.BoundaryField.from_function(lambda s: np.cos(2 * s), disk1.M)
    calls = [lambda: flow.flow_setup(disk1, u, f, psi, bad),
             lambda: flow.marginal_value(disk1, u, f, psi, bad)]
    if psi is not None:  # with psi = None only the Wulff shape sees t
        calls += [lambda: measure.conjugate_flow(u, psi, bad, x),
                  lambda: measure.flow_potential(u, psi, bad),
                  lambda: flow_derivatives(u, psi, bad, x)]
    for call in calls:
        with pytest.raises(ConvexLabError, match=rf"finite t, got t = {float(bad)}$") as info:
            call()
        assert type(info.value) is ConvexLabError


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("path", ["closed quadratic", "closed conjugate"])
def test_flow_closed_form_names_non_finite_rows(gaussian, quartic, bad, path):
    u, psi = _flow_pairs(gaussian, quartic)[path]
    x = np.array([[0.2, 0.1], [bad, 0.0]])
    with pytest.raises(ConvexLabError, match=r"flow closed form got 1 non-finite "
                                             r"point\(s\), the first .* at row 1"):
        measure.conjugate_flow(u, psi, 0.1, x)
    with pytest.raises(ConvexLabError, match="non-finite"):
        flow_derivatives(u, psi, 0.1, x, method="closed")
    # the flowed potential's own callables follow the same policy
    u_t = measure.flow_potential(u, psi, 0.1)
    for evaluate in (u_t.value, u_t.grad, u_t.hess):
        with pytest.raises(ConvexLabError, match=r"flow closed form got 1 non-finite "
                                                 r"point\(s\), the first .* at row 1"):
            evaluate(x)


def test_conjugate_psi_solves_once_per_point_set(blob, quartic, monkeypatch):
    # the shape derivatives and the cross-module identity read psi = alpha*u*
    # at grad u of the interior nodes and of the boundary grid: one solve each
    f = forms.BoundaryField.from_function(lambda s: np.cos(2 * s) + 0.1 * np.sin(3 * s),
                                          blob.M)
    psi = measure.ConjugatePerturbation(quartic, 0.4)
    seen, fresh = [], measure._conjugate_newton
    monkeypatch.setattr(measure, "_conjugate_newton",
                        lambda u, y: seen.append(y.copy()) or fresh(u, y))
    d = flow.shape_derivatives(blob, quartic, f, psi)
    rep = flow.mean_form_from_flow(blob, quartic, f, psi, derivatives=d)
    assert rep["passed"]
    nodes = quad.interior_nodes(blob)[0].reshape(-1, 2)
    assert [y.tobytes() for y in seen] == [quartic.grad(nodes).tobytes(),
                                           quartic.grad(blob.boundary_grid).tobytes()]


def _signed_zero_sets(seed):
    """Three point sets: a, a with the signs of its zeros flipped, and a shorter c."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(12, 2)) * 0.7
    a[:3] = [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]
    a[5, 1] = -0.0
    b = a.copy()
    b[a == 0.0] *= -1.0
    return a, b, rng.normal(size=(6, 2)) * 0.7


@settings(max_examples=40, deadline=None)
@given(reads=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(["value", "grad", "hess"]),
                                 st.booleans()), min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1),
       owner=st.sampled_from(["psi", "conjugate potential", "flow potential"]))
def test_conjugate_reads_match_fresh_solves_bytes(reads, seed, owner):
    # value/grad/hess on interleaved point sets, flat or stacked (q, m, 2):
    # each read has the bytes of a fresh solve, and a set is solved again only
    # after two other sets have been read since it was last read
    base, alpha = _QUARTIC, 0.7
    sets = _signed_zero_sets(seed)
    fresh_conjugate = measure._conjugate_newton

    def fresh_reads(y):
        val, z = fresh_conjugate(base, y)
        return alpha * val, alpha * z, alpha * measure._inv_2x2(base._hess(z))

    name = "_conjugate_newton"
    if owner == "psi":
        reader = measure.ConjugatePerturbation(base, alpha)
    elif owner == "conjugate potential":
        reader, alpha = measure.conjugate_potential(base), 1.0
    else:  # the quartic's u_t has no closed form: it reads _flow_newton
        reader, name = measure.flow_potential(base, _PSI, _T), "_flow_newton"

        def fresh_reads(y):
            return _reference_flow_newton(base, _PSI, _T, y)

    solves, recent = [], []
    fresh = getattr(measure, name)

    def counted(*args):
        solves.append(args[-1].tobytes())
        return fresh(*args)

    setattr(measure, name, counted)
    try:
        expected_solves = 0
        for k, method, stacked in reads:
            y = sets[k]
            lead = (3, len(y) // 3) if stacked else (len(y),)
            got = getattr(reader, method)(y.reshape(lead + (2,)))
            want = dict(zip(("value", "grad", "hess"), fresh_reads(y)))[method]
            assert got.shape == want.reshape(lead + want.shape[1:]).shape
            assert got.tobytes() == want.tobytes()
            if k in recent:
                recent.remove(k)
            else:
                expected_solves += 1
            recent = (recent + [k])[-2:]
            assert len(solves) == expected_solves
    finally:
        setattr(measure, name, fresh)


def test_conjugate_potential_hands_out_its_own_arrays(quartic, rng):
    # and so does the Newton-backed flow potential, which keeps its solves alike
    y = rng.normal(size=(5, 2))
    for reader, solve in ((measure.conjugate_potential(quartic), measure._conjugate_newton),
                          (measure.flow_potential(quartic, _PSI, _T),
                           lambda u, y: measure._flow_newton(u, _PSI, _T, y))):
        first = reader.value(y)
        first += 1.0
        assert reader.value(y).tobytes() == solve(quartic, y)[0].tobytes()
        g = reader.grad(y)
        g[:] = 0.0
        assert reader.grad(y).tobytes() == solve(quartic, y)[1].tobytes()


@settings(max_examples=30, deadline=None)
@given(pot=st.sampled_from(sorted(_POTENTIALS)), n=_cloud_sizes,
       seed=st.integers(0, 2**32 - 1), radius=st.floats(0.05, 1.5), t=st.floats(-0.1, 0.1))
# two draws where the solve raises: FlowNotConvex, then NewtonDivergence
@example(pot="quartic", n=13, seed=1, radius=1.5, t=-0.0625)
@example(pot="quartic", n=34, seed=2, radius=1.5, t=-0.0625)
def test_value_grad_and_hess_of_one_point_set_run_one_flow_newton_bytes(pot, n, seed, radius,
                                                                         t):
    # the Newton-backed u_t reads one solve for all three, with the reference's
    # bytes; where the solve raises, each read raises the reference's error.
    # The Hessian comes from the solve's A: reading it takes no further u''
    base = _POTENTIALS[pot]
    hess_calls = []
    u = measure.Potential(base.kind, base._value, base._grad,
                          lambda p: hess_calls.append(len(p)) or base._hess(p))
    x = _cloud(seed, n, radius)
    u_t = measure._flow_potential(u, _PSI, t, "newton")
    calls, fresh = [], measure._flow_newton

    def counted(*args):
        calls.append(args)
        return fresh(*args)

    measure._flow_newton = counted
    try:
        got = [_outcome(lambda: [getattr(u_t, m)(x)]) for m in ("value", "grad")]
        solved = len(hess_calls)
        got.append(_outcome(lambda: [u_t.hess(x)]))
    finally:
        measure._flow_newton = fresh
    want = _outcome(_reference_flow_newton, base, _PSI, t, x) if n else [
        np.zeros(0).tobytes(), np.zeros((0, 2)).tobytes(), np.zeros((0, 2, 2)).tobytes()]
    if isinstance(want, tuple):
        assert got == [want] * 3 and len(calls) == 3
    else:
        assert got == [[b] for b in want] and len(calls) == 1
        assert len(hess_calls) == solved


@pytest.mark.parametrize("scale, says", [
    (-1.0, "flow Jacobian became singular; t is past the window"),
    (-2.0, "u* + t*psi is not strictly convex at the maximizer"),
])
def test_flow_newton_names_the_lost_convexity(gaussian, scale, says):
    # with u = |x|^2/2 and psi = <By, y>/2, B = scale*I, the flow Jacobian at
    # t = 1 is (1 + scale) I: zero for scale -1, and -I for scale -2, where
    # Newton converges to z = -x but the dual Hessian I + B is negative
    psi = measure.QuadraticPerturbation(B=scale * np.eye(2))
    x = np.array([[0.2, 0.1], [-0.3, 0.4]])
    for evaluate in (lambda: measure.conjugate_flow(gaussian, psi, 1.0, x, method="newton"),
                     lambda: measure._flow_newton(gaussian, psi, 1.0, x)):
        with pytest.raises(FlowNotConvex) as info:
            evaluate()
        assert str(info.value) == says
