import gc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from convexlab import (acceptance, analysis, flow, forms, geometry, measure, pde, quad, spectral,
                       suite)
from convexlab.errors import LebesgueModeRestriction, NonFiniteIntegral, OriginOutside
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


@pytest.mark.parametrize("rho, says", [
    (np.ones(256), "expected a BoundaryField, got ndarray"),
    (np.cos, "expected a BoundaryField"),
    (1.0, "expected a BoundaryField, got float"),
    (forms.BoundaryField(np.ones(128)), "does not match the body grid"),
], ids=["array", "callable", "scalar", "other-grid"])
def test_entries_take_only_a_boundary_field_on_the_body_grid(disk1, gaussian, rho, says):
    ok = forms.BoundaryField.constant(1.0, disk1.M)
    phi = forms.InteriorField.coordinate(0)
    for call in (lambda: forms.form_P(disk1, gaussian, rho, ok),
                 lambda: forms.form_P(disk1, gaussian, ok, rho),
                 lambda: forms.form_I(disk1, gaussian, rho, phi),
                 lambda: forms.check_mean_form(disk1, gaussian, rho, phi),
                 lambda: pde.apply_L(disk1, gaussian, rho),
                 lambda: pde.rayleigh(disk1, gaussian, rho),
                 lambda: flow.vector_field_X(disk1, rho, 0.1, np.zeros(2)),
                 lambda: flow.shape_derivatives(disk1, gaussian, rho),
                 lambda: flow.mean_form_from_flow(disk1, gaussian, rho, None)):
        with pytest.raises(ValueError, match=says):
            call()


@pytest.mark.parametrize("phi", [lambda p: p[..., 0], np.ones(8192), 1.0],
                         ids=["callable", "array", "scalar"])
def test_entries_take_only_an_interior_field(disk1, gaussian, phi):
    ok = forms.InteriorField.coordinate(0)
    rho = forms.BoundaryField.constant(1.0, disk1.M)
    for call in (lambda: forms.form_BL(disk1, gaussian, phi, ok),
                 lambda: forms.form_BL(disk1, gaussian, ok, phi),
                 lambda: forms.form_I(disk1, gaussian, rho, phi),
                 lambda: forms.check_mean_form(disk1, gaussian, rho, phi)):
        with pytest.raises(ValueError, match="expected an InteriorField"):
            call()


@pytest.mark.parametrize("values, says", [
    (np.zeros((2, 128)), "boundary field must be a 1-D sample array"),
    ([0.0, np.nan, 1.0], "boundary field samples must be finite"),
], ids=["2-D", "nan"])
def test_boundary_field_takes_finite_1d_samples(values, says):
    with pytest.raises(ValueError, match=f"^{says}$"):
        forms.BoundaryField(values)


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
    t = spectral.grid(M)
    f = forms.BoundaryField(np.sin(3 * t), 3 * np.cos(3 * t))
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


def test_mean_form_check_reuses_nodes_and_radial_rule(monkeypatch):
    # each Q's radial rule is built at most once per process and the nodes at
    # most once per (body, Q); fresh bodies keep other tests' entries out
    builds, rules = [], []
    build_nodes, leggauss = quad._build_nodes, np.polynomial.legendre.leggauss
    monkeypatch.setattr(quad, "_build_nodes",
                        lambda body, Q: builds.append((body, Q)) or build_nodes(body, Q))
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda deg: rules.append(deg) or leggauss(deg))
    quad._radial_rule.cache_clear()
    bodies = (geometry.ellipse(2.0, 1.0), geometry.ellipse(2.0, 1.0))
    u = measure.quadratic_potential([[1.0, 0.0], [0.0, 4.0]])
    rng = np.random.default_rng(5)
    for k in range(50):
        body = bodies[k % 2]
        forms.check_mean_form(body, u, random_boundary_field(rng, body.M),
                              random_interior_field(rng), Q=(24, 32)[k // 2 % 2])
    assert sorted(rules) == [24, 32]
    assert len(builds) == len(set(builds)) == 4


# -- the per-(body, u, Q) store against the forms as computed without it --------


def _ref_nodes(body, Q):
    body.require_interior_origin()
    sq, sw = np.polynomial.legendre.leggauss(Q)
    s, sw = 0.5 * (sq + 1.0), 0.5 * sw
    pts = s[:, None, None] * body.boundary_grid[None, :, :]
    jac = body.values * body.radius_grid
    return pts, (sw * s)[:, None] * jac[None, :] * (2.0 * np.pi / body.M)


def _ref_boundary_integral(body, u, vals):
    w = u.weight(body.boundary_grid) * body.radius_grid
    return float(np.sum(vals * w) * 2.0 * np.pi / body.M)


def _ref_interior_integral(body, u, phi, Q):
    """(mu(K), int phi dmu) from one node set."""
    pts, weights = _ref_nodes(body, Q)
    w = u.weight(pts)
    return (float(np.sum(weights * np.full(pts.shape[:-1], 1.0) * w)),
            None if phi is None else float(np.sum(weights * phi.value(pts) * w)))


def _ref_form_P(body, u, r0, r1, Q):
    w_pts = u.weight(body.boundary_grid)
    grad_term = float(np.sum(r0.deriv() * r1.deriv() * w_pts) * 2.0 * np.pi / body.M)
    hmu = measure.weighted_mean_curvature(body, u)
    curv_term = _ref_boundary_integral(body, u, hmu * r0.values * r1.values)
    muK, _ = _ref_interior_integral(body, u, None, Q)
    mean_term = (_ref_boundary_integral(body, u, r0.values)
                 * _ref_boundary_integral(body, u, r1.values) / muK)
    return grad_term - curv_term + mean_term


def _ref_form_BL(body, u, phi0, phi1, Q):
    u.require_strictly_convex("the interior variance form")
    step = 1e-5 * 2.0 * float(body.values.max())
    pts, wts = _ref_nodes(body, Q)
    flat = pts.reshape(-1, 2)
    wmu = (wts * u.weight(pts)).reshape(-1)
    Hinv = measure._inv_2x2(u.hess(flat).reshape(-1, 2, 2))
    g0 = phi0.gradient(flat, step=step)
    g1 = g0 if phi1 is phi0 else phi1.gradient(flat, step=step)
    grad_term = float(np.sum(wmu * measure._hgg(measure._entries(Hinv), g0, g1)))
    v0 = phi0.value(flat)
    v1 = v0 if phi1 is phi0 else phi1.value(flat)
    prod_term = float(np.sum(wmu * v0 * v1))
    muK = float(np.sum(wmu))
    mean_term = float(np.sum(wmu * v0)) * float(np.sum(wmu * v1)) / muK
    return grad_term - prod_term + mean_term


def _ref_form_I(body, u, r, phi, Q):
    phi_on_boundary = phi.value(body.boundary_grid)
    muK, phi_int = _ref_interior_integral(body, u, phi, Q)
    cross = _ref_boundary_integral(body, u, r.values * phi_on_boundary)
    return cross - _ref_boundary_integral(body, u, r.values) * phi_int / muK


def _bits(fn, *args):
    """float.hex of fn(*args), or the type and message of what it raised."""
    try:
        return float(fn(*args)).hex()
    except Exception as exc:
        return type(exc).__name__, str(exc)


_PSI = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
_FRESH_POTENTIALS = {
    **{name: (lambda name=name: suite.standard_potentials()[name])
       for name in suite.standard_potentials()},
    # Newton-backed: no closed form for a quartic base
    "flow-newton": lambda: measure.flow_potential(measure.even_quartic_potential(0.1),
                                                  _PSI, 0.05),
}


@settings(max_examples=40, deadline=None)
@given(bname=st.sampled_from(sorted(suite.standard_bodies())),
       pname=st.sampled_from(sorted(_FRESH_POTENTIALS)), Q=st.sampled_from([16, 24, 32]),
       seed=st.integers(0, 2**32 - 1), fd=st.booleans())
def test_forms_match_the_unshared_reference_bytes(bname, pname, Q, seed, fd):
    def fresh():
        return suite.standard_bodies()[bname], _FRESH_POTENTIALS[pname]()

    rng = np.random.default_rng(seed)
    rho, rho2 = (random_boundary_field(rng, geometry.DEFAULT_M) for _ in range(2))
    phi, phi2 = (random_interior_field(rng) for _ in range(2))
    if fd:  # the finite-difference gradient path of BL
        phi = forms.InteriorField(phi.value)
    cases = ((forms.form_P, _ref_form_P, rho, rho), (forms.form_P, _ref_form_P, rho, rho2),
             (forms.form_BL, _ref_form_BL, phi, phi), (forms.form_BL, _ref_form_BL, phi, phi2),
             (forms.form_I, _ref_form_I, rho, phi))
    body, u = fresh()
    want = [_bits(ref, body, u, a, b, Q) for _, ref, a, b in cases]
    # each form cold on a (body, u) of its own; then twice on one (body, u), the
    # first pass filling its store and the second reading it
    assert [_bits(fn, *fresh(), a, b, Q) for fn, _, a, b in cases] == want
    for _ in range(2):
        assert [_bits(fn, body, u, a, b, Q) for fn, _, a, b in cases] == want

    P, BL, I = (float.fromhex(want[k]) if isinstance(want[k], str) else None
                for k in (0, 2, 4))
    for body, u in (fresh(), (body, u)):  # cold, then warm
        try:
            rep = forms.check_mean_form(body, u, rho, phi, Q=Q)
        except Exception as exc:
            assert BL is None and want[2] == (type(exc).__name__, str(exc))
            continue
        assert [float(x).hex() for x in (rep.P, rep.BL, rep.I, rep.slack_mean, rep.slack_mult)] \
            == [float(x).hex() for x in (P, BL, I, 0.5 * (P + BL) - I, P * BL - I * I)]


def _ref_pinching_moment(body, u, Q):
    """M = (1/mu(K)) int_K <(del^2 u)^{-1} grad u, grad u> dmu from a fresh stack."""
    pts, wts = _ref_nodes(body, Q)
    flat = pts.reshape(-1, 2)
    wmu = (wts * u.weight(pts)).reshape(-1)
    Hinv = measure._inv_2x2(u.hess(flat).reshape(-1, 2, 2))
    g = u.grad(flat)
    muK, _ = _ref_interior_integral(body, u, None, Q)
    return float(np.sum(wmu * measure._hgg(measure._entries(Hinv), g, g))) / muK


@settings(max_examples=20, deadline=None)
@given(bname=st.sampled_from(sorted(name for name, body in suite.standard_bodies().items()
                                    if body.is_even)),
       pname=st.sampled_from(sorted(name for name, u in suite.standard_potentials().items()
                                    if u.pinching is not None)),
       Q=st.sampled_from([16, 24, 32]))
def test_pinching_moment_matches_the_unshared_reference_bytes(bname, pname, Q):
    # analysis.pinching_bounds reads BL's store, (del^2 u)^{-1} as four columns
    def fresh():
        return suite.standard_bodies()[bname], suite.standard_potentials()[pname]

    def moment(body, u):
        return analysis.pinching_bounds(body, u, Q=Q)["moment"]

    want = _bits(_ref_pinching_moment, *fresh(), Q)
    assert _bits(moment, *fresh()) == want
    # twice on one (body, u): the first call fills the store, the second reads it
    body, u = fresh()
    for _ in range(2):
        assert _bits(moment, body, u) == want


# -- one pair's own fields: the suite's draws and check_mean_form's evaluations ---


def _broadcast_gradient(phi, p):
    """A suite field's gradient as the trailing-axis broadcast it used to be."""
    if phi.descriptor["kind"] == "random-quadratic":
        C, b = phi._grad.__defaults__
        return measure._dot2(p[..., None, :], C) + b
    a, k, delta = phi._grad.__defaults__
    return a * np.cos(p @ k + delta)[..., None] * k


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data(),
       shape=st.sampled_from([(2,), (1, 2), (1, 1, 2), (5, 2), (3, 4, 2), (8192, 2),
                              (32, 256, 2)]))
def test_suite_gradients_match_the_broadcast_expressions_bytes(seed, data, shape):
    rng = np.random.default_rng(seed)
    if np.prod(shape) <= 24:  # small stacks drawn whole, with +-0.0 among the coordinates
        coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))
        p = data.draw(hnp.arrays(float, shape, elements=coord))
    else:                     # quadrature-sized stacks with zeros of both signs scattered in
        p = rng.normal(size=shape)
        p[rng.random(shape) < 0.1] = 0.0
        p[rng.random(shape) < 0.1] = -0.0
    for phi in (random_interior_field(rng) for _ in range(4)):
        want = _broadcast_gradient(phi, p)
        got = phi.gradient(p)
        assert got.shape == want.shape == p.shape
        assert got.tobytes() == want.tobytes()


def _per_call_boundary_field(rng, M):
    """random_boundary_field with its harmonics computed on every call."""
    t = 2.0 * np.pi * np.arange(M) / M
    vals = np.full(M, rng.standard_normal())
    for k in range(1, suite.FIELD_ORDER + 1):
        w = 1.0 / (1.0 + float(k) ** 2.0)
        vals += w * rng.standard_normal() * np.cos(k * t)
        vals += w * rng.standard_normal() * np.sin(k * t)
    return vals


@pytest.mark.parametrize("M", [5, 64, 255, 256, 512])
def test_random_boundary_field_matches_the_per_call_formula_bytes(M):
    for seed in (0, 11, 2**40 + 3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):
            assert (random_boundary_field(rng, M).values.tobytes()
                    == _per_call_boundary_field(ref, M).tobytes())
        assert rng.random() == ref.random()  # and the same number of draws
    rows = spectral._grid_basis(suite.FIELD_ORDER, M)[0]
    assert spectral._grid_basis(suite.FIELD_ORDER, M)[0] is rows
    assert rows.shape == (2 * suite.FIELD_ORDER + 1, M)
    with pytest.raises(ValueError, match="read-only"):
        rows[1, 0] = 0.0


def test_mean_form_check_evaluates_phi_once_per_point_set(ellipse21, quad14):
    rng = np.random.default_rng(12)
    rho, base = random_boundary_field(rng, ellipse21.M), random_interior_field(rng)
    calls = []

    def log(name, fn):
        return lambda p: calls.append((name, p.shape)) or fn(p)

    phi = forms.InteriorField(log("value", base.value), log("gradient", base.gradient))
    rep = forms.check_mean_form(ellipse21, quad14, rho, phi, Q=24)
    nodes, M = 24 * ellipse21.M, ellipse21.M
    assert calls == [("gradient", (nodes, 2)), ("value", (nodes, 2)), ("value", (M, 2))]
    # I's interior mean read BL's node values: the standalone forms give the same bits
    want = (forms.form_P(ellipse21, quad14, rho, rho, Q=24),
            forms.form_BL(ellipse21, quad14, base, base, Q=24),
            forms.form_I(ellipse21, quad14, rho, base, Q=24))
    assert [x.hex() for x in (rep.P, rep.BL, rep.I)] == [x.hex() for x in want]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_BL_form_raises_instead_of_a_false_falsification(ellipse21, quad14):
    # finite values, a gradient that is infinite where x or y > 1.5: BL = inf - inf
    phi = forms.InteriorField(lambda p: p[..., 0].copy(),
                              lambda p: np.where(p > 1.5, np.inf, 0.0),
                              descriptor={"kind": "blow-up"})
    rho = forms.BoundaryField(np.ones(ellipse21.M))
    for call in (lambda: forms.form_BL(ellipse21, quad14, phi, phi),
                 lambda: forms.check_mean_form(ellipse21, quad14, rho, phi)):
        with pytest.raises(NonFiniteIntegral, match="BL form of .*'blow-up'.* is nan"):
            call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mean_form_check_refuses_lebesgue_before_any_node_work():
    # a fresh body and potential: no stored inverse Hessians from other tests;
    # building them for u = 0 divides by zero, which this test makes an error
    body, u = geometry.disk(1.0), measure.zero_potential()
    rng = np.random.default_rng(9)
    with pytest.raises(LebesgueModeRestriction):
        forms.check_mean_form(body, u, random_boundary_field(rng, body.M),
                              random_interior_field(rng))


# -- the random-pair check: every pair's boundary side in one stack ---------------


def _per_pair_check(body, u, pairs, rng, Q):
    """random_pairs_check written out: draw a pair, check_mean_form it, fold it in."""
    worst_mean, worst_mult, failures = np.inf, np.inf, []
    for i in range(pairs):
        rho = random_boundary_field(rng, body.M)
        phi = random_interior_field(rng)
        rep = forms.check_mean_form(body, u, rho, phi, Q=Q)
        worst_mean = min(worst_mean, rep.slack_mean / rep.scale)
        worst_mult = min(worst_mult, rep.slack_mult / rep.scale**2)
        if not (rep.passed_mean and rep.passed_mult):
            failures.append(f"pair {i}: mean slack {rep.slack_mean:.3e}, "
                            f"mult slack {rep.slack_mult:.3e}")
    return worst_mean, worst_mult, failures


def _field_tables(body):
    """The store's tables of body that hold an interior field's node values."""
    return [t for t in quad._SHARED[body][1].values()
            if any(isinstance(k, tuple) and k[0] == "values" for k in t)]


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("pairs", [1, 2, 50])
@pytest.mark.parametrize("bname, pname", [("disk1", "gaussian"), ("ellipse21", "quad14"),
                                          ("blob", "quartic")])
def test_random_pairs_check_matches_a_per_pair_loop_bytes(monkeypatch, bname, pname, pairs,
                                                          seed):
    # criterion 4a's configurations, on a fresh body so that the store holds only this check
    body = suite.standard_bodies(acceptance.M)[bname]
    u = suite.standard_potentials()[pname]
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda s: made.append(default_rng(s)) or made[-1])
    form_BL, live = forms.form_BL, []

    def logged_BL(*args, **kwargs):
        live.append(len(_field_tables(body)))
        return form_BL(*args, **kwargs)

    monkeypatch.setattr(forms, "form_BL", logged_BL)
    got = acceptance.random_pairs_check(body, u, pairs, seed, acceptance.Q)
    # a pair's field is gone before the next pair's BL, and none outlives the check
    assert live == [0] * pairs and _field_tables(body) == []
    ref = default_rng(seed)
    want = _per_pair_check(body, u, pairs, ref, acceptance.Q)
    assert [x.hex() for x in got[:2]] == [x.hex() for x in want[:2]]
    assert got[2] == want[2] == []
    assert made[0].random() == ref.random()  # the same number of draws


def test_random_pairs_check_lists_the_per_pair_loop_failures(monkeypatch):
    # BL scaled by 0.05, looked up by name on both paths: some pairs fail, not all
    body = suite.standard_bodies(acceptance.M)["ellipse21"]
    u = suite.standard_potentials()["quad14"]
    form_BL = forms.form_BL
    monkeypatch.setattr(forms, "form_BL", lambda *args, **kwargs: 0.05 * form_BL(*args, **kwargs))
    got = acceptance.random_pairs_check(body, u, 50, 3, acceptance.Q)
    want = _per_pair_check(body, u, 50, np.random.default_rng(3), acceptance.Q)
    assert 0 < len(want[2]) < 50
    assert got[2] == want[2]
    assert [x.hex() for x in got[:2]] == [x.hex() for x in want[:2]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_pairs_refuse_in_the_per_pair_order(gaussian):
    # pair 0's I overflows on the boundary alone; pair 1's BL is nan.  One pair at a
    # time, pair 0's refusal comes first, so the stacked check must raise it too.
    body = geometry.disk(1.0)
    zero = lambda p: np.zeros(p.shape)
    huge = forms.InteriorField(lambda p: np.where(np.hypot(p[..., 0], p[..., 1]) > 0.999,
                                                  1e308, 1.0), zero)
    blow_up = forms.InteriorField(lambda p: p[..., 0].copy(),
                                  lambda p: np.where(p > 0.5, np.inf, 0.0))
    rho = forms.BoundaryField(np.ones(body.M))
    with pytest.raises(NonFiniteIntegral, match="boundary integral against .* is inf"):
        forms.check_mean_form(body, gaussian, rho, huge, Q=8)
    with pytest.raises(NonFiniteIntegral, match="BL form of .* is nan"):
        forms.check_mean_form(body, gaussian, rho, blow_up, Q=8)
    with pytest.raises(NonFiniteIntegral, match="boundary integral against .* is inf"):
        forms._pair_reports(body, gaussian, np.ones((2, body.M)), [huge, blow_up], Q=8)


# -- the store's work, keys, write protection and lifetime ------------------------


def _counted(u):
    """u with value/grad/hess closures that log (name, rows) per call."""
    calls = []

    def count(name, fn):
        return lambda p: calls.append((name, len(p))) or fn(p)

    return measure.Potential(u.kind, count("value", u._value), count("grad", u._grad),
                             count("hess", u._hess)), calls


def _arrays(*tables):
    """The arrays the store tables hold, each once; records searched through."""
    found = {}
    for table in tables:
        for v in table.values():
            for a in v if isinstance(v, tuple) else (v,):
                if isinstance(a, np.ndarray):
                    found.setdefault(id(a), a)
    return list(found.values())


def _stored_arrays(body):
    own, per_u = quad._SHARED[body]
    return _arrays(own, *per_u.values())


def test_pairs_on_one_body_potential_and_Q_evaluate_u_once():
    body = geometry.ellipse(2.0, 1.0)
    u, calls = _counted(measure.quadratic_potential([[1.0, 0.0], [0.0, 4.0]]))
    rng = np.random.default_rng(7)
    for _ in range(50):
        forms.check_mean_form(body, u, random_boundary_field(rng, body.M),
                              random_interior_field(rng), Q=24)
    nodes = 24 * body.M
    # e^{-u} on the boundary and at the nodes, H_mu (grad u on the boundary), hess u
    assert sorted(calls) == [("grad", body.M), ("hess", nodes), ("value", body.M),
                             ("value", nodes)]
    n_stored = len(_stored_arrays(body))

    # a second Q: new nodes, e^{-u} and hess u there; the boundary terms are shared
    calls.clear()
    rho, phi = random_boundary_field(rng, body.M), random_interior_field(rng)
    forms.check_mean_form(body, u, rho, phi, Q=32)
    assert sorted(calls) == [("hess", 32 * body.M), ("value", 32 * body.M)]
    assert quad.interior_nodes(body, 32)[0] is not quad.interior_nodes(body, 24)[0]
    assert quad.interior_nodes(body, 32)[0] is quad.interior_nodes(body, 32)[0]
    assert len(_stored_arrays(body)) > n_stored

    # a second potential on the same body: entries of its own, none of u's work
    v, v_calls = _counted(measure.quadratic_potential([[1.0, 0.0], [0.0, 4.0]]))
    calls.clear()
    forms.check_mean_form(body, v, rho, phi, Q=24)
    assert calls == []
    assert sorted(v_calls) == [("grad", body.M), ("hess", nodes), ("value", body.M),
                               ("value", nodes)]


def test_stored_arrays_are_read_only(quartic):
    body = geometry.fourier_body(1.0, cos={2: 0.15}, sin={3: 0.05})
    rng = np.random.default_rng(3)
    forms.check_mean_form(body, quartic, random_boundary_field(rng, body.M),
                          random_interior_field(rng), Q=16)
    arrays = _stored_arrays(body)
    # nodes, weights; boundary e^{-u}, its r multiple, H_mu; e^{-u} at the nodes,
    # mu(K); the flat nodes; BL's weights and the columns of (del^2 u)^{-1}
    assert len(arrays) == 10
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0.0


def test_field_values_are_stored_once_per_body_field_and_Q_and_die_with_the_field():
    body, u = geometry.ellipse(2.0, 1.0), measure.gaussian_potential()
    base = random_interior_field(np.random.default_rng(5))
    calls = []
    phi = forms.InteriorField(lambda p: calls.append(p.shape) or base.value(p), base.gradient)
    first = quad.interior_integral(body, u, phi, Q=24)
    forms.form_BL(body, u, phi, phi, Q=24)
    assert quad.interior_integral(body, u, phi, Q=24) == first
    assert calls == [(24 * body.M, 2)]
    quad.interior_integral(body, u, phi, Q=16)
    assert calls == [(24 * body.M, 2), (16 * body.M, 2)]
    # the flat evaluation gives the bytes of one on the (Q, M, 2) stack
    stack = quad.interior_nodes(body, 24)[0]
    assert first == quad.interior_integral(body, u, base.value(stack), Q=24)
    stored = quad._node_values(body, phi, stack.reshape(-1, 2))
    assert calls == [(24 * body.M, 2), (16 * body.M, 2)]
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = 0.0
    ref = weakref.ref(stored)
    del stored, phi
    gc.collect()
    assert ref() is None
    assert list(quad._SHARED[body][1]) == [u]


def test_stored_entries_die_with_their_body_and_potential():
    body, u = geometry.disk(1.0), measure.gaussian_potential()
    rng = np.random.default_rng(4)
    forms.check_mean_form(body, u, random_boundary_field(rng, body.M),
                          random_interior_field(rng))
    own, per_u = quad._SHARED[body]
    body_refs = [weakref.ref(a) for a in _arrays(own)]
    # u's records also hold the body's weights, which live on with the body
    u_refs = [weakref.ref(a) for a in _arrays(per_u[u])
              if not any(a is b for b in _arrays(own))]
    del own, per_u
    assert len(body_refs) == 2 and len(u_refs) == 8
    del u
    gc.collect()
    assert all(r() is None for r in u_refs) and all(r() is not None for r in body_refs)
    del body
    gc.collect()
    assert all(r() is None for r in body_refs)


def test_origin_outside_raises_on_every_call(gaussian):
    body = geometry.SupportFunction2D(1.0 + 1.5 * np.cos(spectral.grid(256)))  # disk at (1.5, 0)
    rng = np.random.default_rng(6)
    rho, phi = random_boundary_field(rng, body.M), random_interior_field(rng)
    for _ in range(3):
        for call in (lambda: quad.interior_nodes(body),
                     lambda: quad.interior_integral(body, gaussian),
                     lambda: forms.form_P(body, gaussian, rho, rho),
                     lambda: forms.form_BL(body, gaussian, phi, phi),
                     lambda: forms.form_I(body, gaussian, rho, phi),
                     lambda: forms.check_mean_form(body, gaussian, rho, phi)):
            with pytest.raises(OriginOutside):
                call()


def _moved(v, k, reflect):
    """Grid samples moved as h moves under x -> R S x: S = diag(1, -1) or Id,
    R the turn by k grid steps (h_{SK}(theta) = h(-theta), h_{RK}(theta) =
    h(theta - 2 pi k / M))."""
    return np.roll(np.roll(v[::-1], 1) if reflect else v, k)


def _moved_field(phi, T):
    """phi o T^T, with gradient T grad phi(T^T x), for an orthogonal T."""
    return forms.InteriorField(lambda p: phi.value(p @ T),
                               lambda p: phi.gradient(p @ T) @ T.T)


_ISOMETRIES = [(1, False), (5, False), (64, False), (0, True)]
_SYMMETRY_CASES = ([(b, p, k, s) for b in ("ellipse21", "blob", "peanut")
                    for p in ("quad14", "quad_mixed") for k, s in _ISOMETRIES]
                   + [(b, "quartic", 64, False) for b in ("ellipse21", "blob", "peanut")])


@pytest.mark.parametrize("bname, pname, k, reflect", _SYMMETRY_CASES)
def test_forms_are_invariant_under_rotation_and_reflection(bname, pname, k, reflect):
    # P, BL and I are quantities of (K, mu, rho, phi), so an isometry T that
    # moves all four keeps each: K and rho move as h does, phi goes to phi o T^T
    # and u(x) = <Ax, x>/2 to <T A T^T x, x>/2; the even quartic is invariant
    # under quarter turns only.  These reach the off-diagonal Hessian entries
    # of BL, quad_mixed and the frame's sin and cos, which disks never do
    body, u = suite.standard_bodies()[bname], suite.standard_potentials()[pname]
    a = 2.0 * np.pi * k / body.M
    T = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    if reflect:
        T = T @ np.diag([1.0, -1.0])
    K = geometry.SupportFunction2D(_moved(body.values, k, reflect))
    if pname == "quartic":
        v = u
    else:
        A = T @ u.hess(np.zeros(2)) @ T.T
        v = measure.quadratic_potential(0.5 * (A + A.T))
    rng = np.random.default_rng(1000 * k + 10 * reflect + len(bname + pname))
    for _ in range(3):
        rho, phi = random_boundary_field(rng, body.M), random_interior_field(rng)
        rep = forms.check_mean_form(body, u, rho, phi)
        moved = forms.check_mean_form(K, v, forms.BoundaryField(_moved(rho.values, k, reflect)),
                                      _moved_field(phi, T))
        # relative to the pair's scale: a small I is a difference of larger terms
        scale = max(abs(rep.P), abs(rep.BL))
        for name in ("P", "BL", "I"):
            assert abs(getattr(moved, name) - getattr(rep, name)) <= 1e-12 * scale, name
