import collections

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexlab import flow, forms, geometry, measure, pde, quad, spectral, suite
from convexlab.errors import PerturbationTooLarge
from convexlab.flow import FlowConfig


def field(fn, M=256):
    return forms.BoundaryField.from_function(fn, M)


def test_vector_field_identity_at_zero(ellipse21, rng):
    f = field(lambda t: np.cos(2 * t))
    x = rng.normal(size=(6, 2)) * 0.5
    npt.assert_allclose(flow.vector_field_X(ellipse21, f, 0.0, x), x, atol=1e-12)
    npt.assert_allclose(flow.vector_field_X(ellipse21, f, 0.3, np.zeros(2)),
                        np.zeros(2), atol=1e-15)


def test_vector_field_maps_boundary_to_perturbed_boundary(ellipse21):
    f = field(lambda t: np.cos(2 * t))
    t = 0.05
    body_t = geometry.wulff_perturb(ellipse21, f, t)
    for j in range(0, ellipse21.M, 31):
        x = ellipse21.boundary_grid[j]
        y = flow.vector_field_X(ellipse21, f, t, x)
        assert abs(geometry.gauge(body_t, y) - 1.0) < 1e-8


def test_vector_field_dilation_case(disk1):
    # f == 1 gives K_t = (1+t)K and X_t(x) = (1+t)x on the boundary
    f = forms.BoundaryField.constant(1.0, disk1.M)
    x = disk1.boundary_grid[13]
    y = flow.vector_field_X(disk1, f, 0.2, x)
    npt.assert_allclose(y, 1.2 * x, atol=1e-10)


def test_vector_field_respects_scaled_boundaries(blob):
    f = field(lambda t: np.cos(2 * t) + 0.1 * np.sin(3 * t))
    t = 0.04
    body_t = geometry.wulff_perturb(blob, f, t)
    for s in (0.25, 0.5, 1.0):
        for j in (3, 77, 141):
            x = s * blob.boundary_grid[j]
            y = flow.vector_field_X(blob, f, t, x)
            assert abs(geometry.gauge(body_t, y) - s) < 1e-7


def _per_point_X(body, f, t, x):
    """Reference X_t: the per-point loop that the batched gauge replaced."""
    pts = np.asarray(x, dtype=float)
    flat = pts.reshape(-1, 2)
    out = flat.copy()
    for i, xi in enumerate(flat):
        s, theta = geometry.gauge_angle(body, xi)
        if s == 0.0:
            continue
        nu = np.array([np.cos(theta), np.sin(theta)])
        tau = np.array([-np.sin(theta), np.cos(theta)])
        grad_f = float(f.eval(theta, 1)) * tau + float(f.eval(theta)) * nu
        out[i] = xi + t * s * grad_f
    return out.reshape(pts.shape[:-1] + (2,))


def _seeded_f(rng, M=256):
    t = spectral.grid(M)
    vals = np.full(M, rng.uniform(-0.1, 0.1))
    for k in (2, 3):
        vals += rng.uniform(-1.0, 1.0) * np.cos(k * t) + rng.uniform(-0.2, 0.2) * np.sin(k * t)
    return forms.BoundaryField(vals)


@pytest.mark.parametrize("name", ["disk1", "ellipse21", "blob"])
@pytest.mark.parametrize("t", [-0.05, 0.05])
def test_vector_field_matches_per_point_loop(name, t, request):
    body = request.getfixturevalue(name)
    rng = np.random.default_rng(7 + body.M + int(100 * t))
    f = _seeded_f(rng)
    j = rng.integers(0, body.M, size=40)
    on_rays = rng.uniform(0.1, 1.2, size=40)[:, None] * body.boundary_grid[j]
    x = np.vstack([on_rays, rng.normal(size=(40, 2)), [[0.0, 0.0], [-0.0, 0.0]]])
    assert flow.vector_field_X(body, f, t, x).tobytes() == _per_point_X(body, f, t, x).tobytes()
    grid = x[:78].reshape(6, 13, 2)
    assert flow.vector_field_X(body, f, t, grid).tobytes() == _per_point_X(body, f, t, grid).tobytes()
    for one in (x[0], x[50], x[-1]):
        y = flow.vector_field_X(body, f, t, one)
        assert y.shape == (2,) and y.tobytes() == _per_point_X(body, f, t, one).tobytes()
    assert flow.vector_field_X(body, f, t, np.zeros((0, 2))).shape == (0, 2)


def test_vector_field_has_no_per_point_loop(ellipse21, monkeypatch):
    gauge_calls, evaluate_calls = [], []
    gauge_angle, evaluate = geometry.gauge_angle, spectral.evaluate

    def counted_gauge(*args, **kwargs):
        gauge_calls.append(1)
        return gauge_angle(*args, **kwargs)

    def counted_evaluate(*args, **kwargs):
        evaluate_calls.append(1)
        return evaluate(*args, **kwargs)

    for module in (geometry, flow):  # every namespace that binds the name
        monkeypatch.setattr(module, "gauge_angle", counted_gauge)
    monkeypatch.setattr(spectral, "evaluate", counted_evaluate)
    rng = np.random.default_rng(3)
    f = _seeded_f(rng)
    x = rng.normal(size=(100, 2))
    counts = {}
    for n in (10, 100):
        gauge_calls.clear()
        evaluate_calls.clear()
        flow.vector_field_X(ellipse21, f, 0.05, x[:n])
        assert len(gauge_calls) == 1
        counts[n] = len(evaluate_calls)
    assert counts[100] <= counts[10]


def test_marginal_constant_without_perturbation(disk1, gaussian):
    f = forms.BoundaryField.constant(0.0, disk1.M)
    tab = flow.marginal_S(disk1, gaussian, FlowConfig(f=f, psi=None, eps=0.1, n_t=9))
    npt.assert_allclose(tab["S"], tab["S"][0], atol=1e-13)
    npt.assert_allclose(tab["second_differences"], 0.0, atol=1e-9)


def test_marginal_pure_wulff_concavity(disk1, gaussian):
    # strict concavity for the cos(2t) direction on the gaussian disk
    f = field(lambda t: np.cos(2 * t))
    tab = flow.marginal_S(disk1, gaussian, FlowConfig(f=f, psi=None, eps=0.1, n_t=21))
    assert tab["eps"] == 0.1
    assert np.all(tab["second_differences"] < 0)


def test_marginal_concavity_with_legendre_leg(blob, quartic):
    f = field(lambda t: np.cos(2 * t) + 0.1 * np.sin(3 * t))
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
    tab = flow.marginal_S(blob, quartic, FlowConfig(f=f, psi=psi, eps=0.08, n_t=15))
    assert tab["max_second_difference"] <= 1e-7


def test_translation_flow_is_linear(ellipse21, quad14):
    x0 = np.array([0.3, -0.2])
    f = forms.BoundaryField(ellipse21.normals_grid @ x0)
    psi = measure.QuadraticPerturbation(b=x0, c=0.7)
    tab = flow.marginal_S(ellipse21, quad14, FlowConfig(f=f, psi=psi, eps=0.1, n_t=15))
    npt.assert_allclose(tab["second_differences"], 0.0, atol=1e-8)
    d = flow.shape_derivatives(ellipse21, quad14, f, psi)
    assert abs(d["S2"]) <= 1e-8


def test_homothety_flow_marginal_matches_radial_oracle(disk1, gaussian):
    # f = h, psi = u*: closed form I(t) = 2 pi (1+t)(1 - e^{-(1+t)/2})
    f = forms.BoundaryField(disk1.values.copy())
    psi = measure.ConjugatePerturbation(gaussian, 1.0)
    tab = flow.marginal_S(disk1, gaussian, FlowConfig(f=f, psi=psi, eps=0.1, n_t=9))
    s = 1.0 + tab["t"]
    oracle = 2 * np.pi * s * (1 - np.exp(-s / 2))
    npt.assert_allclose(tab["I"], oracle, rtol=1e-12)
    # concave but NOT linear: S''(0) = Var_{mu|K}(u) - 2 here
    d = flow.shape_derivatives(disk1, gaussian, f, psi)
    assert d["S2"] == pytest.approx(-1.979424524, abs=1e-8)


def test_shape_derivatives_trivial(disk1, gaussian):
    f = forms.BoundaryField.constant(0.0, disk1.M)
    d = flow.shape_derivatives(disk1, gaussian, f, None)
    assert d["I1"] == 0.0 and d["I2"] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("case", ["disk_gauss_quad", "ellipse_quad_conj",
                                  "blob_quartic_quad"])
def test_shape_derivatives_match_fd(case, disk1, ellipse21, blob, gaussian,
                                    quad14, quartic):
    body, u = {"disk_gauss_quad": (disk1, gaussian),
               "ellipse_quad_conj": (ellipse21, quad14),
               "blob_quartic_quad": (blob, quartic)}[case]
    f = field(lambda t: np.cos(2 * t) + 0.1 * np.sin(3 * t))
    if case == "ellipse_quad_conj":
        psi = measure.ConjugatePerturbation(u, 0.4)
    else:
        psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
    d = flow.shape_derivatives(body, u, f, psi)
    h1, h2 = 1e-4, 1e-3
    I = lambda t: flow.marginal_value(body, u, f, psi, t, 32)
    fd1 = (I(h1) - I(-h1)) / (2 * h1)
    fd2 = (I(h2) - 2 * d["I0"] + I(-h2)) / h2**2
    assert fd1 == pytest.approx(d["I1"], rel=1e-6)
    assert fd2 == pytest.approx(d["I2"], rel=1e-4)
    assert d["S2"] <= 1e-8  # concavity of the marginal at t = 0


@pytest.mark.parametrize("dual", ["quadratic", "conjugate"])
def test_shape_derivatives_evaluate_u_once_per_point_set(blob, quartic, monkeypatch, dual):
    # grad u and hess u on the interior nodes feed psi_int, psi_sq and psi_grad
    # from one evaluation each, and the results keep the bytes of the three
    # integrands that evaluated them apiece
    f = field(lambda t: np.cos(2 * t) + 0.1 * np.sin(3 * t), blob.M)
    psi = (measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
           if dual == "quadratic" else measure.ConjugatePerturbation(quartic, 0.4))
    calls = collections.Counter()
    for name in ("grad", "hess"):
        def counted(self, points, name=name, fresh=getattr(measure.Potential, name)):
            if self is quartic:
                calls[name, np.asarray(points, dtype=float).reshape(-1, 2).tobytes()] += 1
            return fresh(self, points)

        monkeypatch.setattr(measure.Potential, name, counted)
    d = flow.shape_derivatives(blob, quartic, f, psi)
    monkeypatch.undo()
    nodes = quad.interior_nodes(blob)[0]
    key = nodes.reshape(-1, 2).tobytes()
    assert calls["grad", key] == 1 and calls["hess", key] == 1
    assert max(n for (name, _), n in calls.items() if name == "hess") == 1

    phi = flow.psi_composed_field(quartic, psi)

    def carre(pts):
        g = psi.grad(quartic.grad(pts))
        return measure._hgg(measure._entries(quartic.hess(pts)), g, g)

    integrals = [quad.interior_integral(blob, quartic, g) for g in (
        phi, forms.InteriorField(lambda p: phi.value(p) ** 2), forms.InteriorField(carre))]
    I0 = quad._mu(blob, quartic, 32)
    psi_bd = phi.value(blob.boundary_grid)
    I1 = integrals[0] + quad.boundary_integral(blob, quartic, f.values)
    I2 = (integrals[1] - integrals[2]
          + 2.0 * quad.boundary_integral(blob, quartic, f.values * psi_bd)
          + quad.boundary_integral(blob, quartic, quad._hmu(blob, quartic) * f.values**2)
          - float(np.sum(f.deriv() ** 2 * quad._boundary_weight(blob, quartic))
                  * (2.0 * np.pi / blob.M)))
    assert (d["I0"], d["I1"], d["I2"]) == (I0, I1, I2)


def test_cross_module_identity(blob, quartic):
    f = field(lambda t: np.cos(2 * t) + 0.1 * np.sin(3 * t))
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
    rep = flow.mean_form_from_flow(blob, quartic, f, psi)
    assert rep["passed"]
    assert rep["mismatch"] <= 1e-7 * rep["scale"]


def test_mean_form_from_flow_evaluates_phi_once_per_point_set(blob, quartic, monkeypatch):
    # BL and I's interior mean read one evaluation of phi = psi(grad u) at the nodes
    f = field(lambda t: np.cos(2 * t) + 0.1 * np.sin(3 * t))
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
    want = flow.mean_form_from_flow(blob, quartic, f, psi)
    calls = []

    def logged(u, psi, fresh=flow.psi_composed_field):
        phi = fresh(u, psi)
        return forms.InteriorField(lambda p: calls.append(("value", p.shape)) or phi.value(p),
                                   lambda p: calls.append(("gradient", p.shape))
                                   or phi.gradient(p))

    monkeypatch.setattr(flow, "psi_composed_field", logged)
    got = flow.mean_form_from_flow(blob, quartic, f, psi)
    nodes = 32 * blob.M
    assert calls == [("gradient", (nodes, 2)), ("value", (nodes, 2)), ("value", (blob.M, 2))]
    assert got == want


def test_cross_module_identity_trivial_and_equality(disk1, gaussian):
    z = forms.BoundaryField.constant(0.0, disk1.M)
    rep = flow.mean_form_from_flow(disk1, gaussian, z, None)
    assert abs(rep["flow_side"]) < 1e-12 and abs(rep["forms_side"]) < 1e-12
    # translation witness: both sides vanish (exact equality case)
    x0 = np.array([0.5, 0.1])
    f = forms.BoundaryField(disk1.normals_grid @ x0)
    psi = measure.QuadraticPerturbation(b=x0)
    rep = flow.mean_form_from_flow(disk1, gaussian, f, psi)
    assert abs(rep["flow_side"]) <= 1e-8
    assert abs(rep["forms_side"]) <= 1e-8


def test_epsilon_halving(disk1, gaussian):
    f = field(lambda t: np.cos(2 * t))   # inadmissible at t = 0.5, fine at 0.25
    cfg, lo, hi = flow.select_epsilon(disk1, gaussian, FlowConfig(f=f, psi=None, eps=0.5, n_t=5))
    assert cfg.eps == 0.25
    assert (lo, hi) == tuple(flow.marginal_value(disk1, gaussian, f, None, t)
                             for t in (-0.25, 0.25))
    # 1 - 3e6 eps cos 2t < 0 somewhere for every eps >= 2^-12
    bad = forms.BoundaryField.from_function(lambda t: 1e6 * np.cos(2 * t), disk1.M)
    with pytest.raises(PerturbationTooLarge, match="after 12 halvings"):
        flow.select_epsilon(disk1, gaussian, FlowConfig(f=bad, psi=None, eps=1.0, n_t=5))


def test_rho_bar_direction_criticality(disk05, gaussian):
    # at p = p(mu, K), perturbing in the minimizer direction is second-order flat
    from convexlab.analysis import local_concavity_fd

    rep = pde.solve_report(disk05, gaussian)
    f = rep["rho_bar"]
    val = local_concavity_fd(disk05, gaussian, f, rep["p"])
    assert abs(val) < 1e-5


@pytest.mark.parametrize("n_t", [3, 4, 9])
def test_marginal_S_evaluates_each_t_once(blob, quartic, monkeypatch, n_t):
    # the window search evaluates I(+eps) and I(-eps); the grid's ends are
    # exactly those t, so the table reuses them and evaluates only its interior
    f = field(lambda t: np.cos(2 * t) + 0.1 * np.sin(3 * t))
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
    cfg = FlowConfig(f=f, psi=psi, eps=0.08, n_t=n_t)
    seen, fresh = [], flow.marginal_value
    monkeypatch.setattr(flow, "marginal_value",
                        lambda *args: seen.append(args[4]) or fresh(*args))
    tab = flow.marginal_S(blob, quartic, cfg)
    assert tab["eps"] == 0.08
    assert len(seen) == n_t
    t_grid = cfg.t_grid()
    assert t_grid[0] == -0.08 and t_grid[-1] == 0.08
    assert sorted(seen) == list(t_grid)
    assert tab["t"].tobytes() == t_grid.tobytes()
    want = [fresh(blob, quartic, f, psi, t) for t in t_grid]
    assert tab["I"].tobytes() == np.array(want).tobytes()


def test_marginal_S_after_a_halving_keeps_the_admitted_ends(disk1, gaussian, monkeypatch):
    f = field(lambda t: np.cos(2 * t))  # inadmissible at t = 0.5, fine at 0.25
    seen, fresh = [], flow.marginal_value
    monkeypatch.setattr(flow, "marginal_value",
                        lambda *args: seen.append(args[4]) or fresh(*args))
    tab = flow.marginal_S(disk1, gaussian, FlowConfig(f=f, psi=None, eps=0.5, n_t=5))
    assert tab["eps"] == 0.25
    assert seen[:3] == [0.5, 0.25, -0.25]  # +0.5 fails; then both ends of 0.25
    assert len(seen) == 1 + 5
    want = [fresh(disk1, gaussian, f, None, t) for t in tab["t"]]
    assert tab["I"].tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("kwargs, says", [
    ({"n_t": 1}, "n_t must be an integer >= 3, got 1"),
    ({"n_t": 2}, "n_t must be an integer >= 3, got 2"),
    ({"n_t": 5.0}, "n_t must be an integer >= 3, got 5.0"),
    ({"eps": 0.0}, "eps must be finite and > 0, got 0.0"),
    ({"eps": -0.1}, "eps must be finite and > 0, got -0.1"),
    ({"eps": float("nan")}, "eps must be finite and > 0, got nan"),
    ({"eps": float("inf")}, "eps must be finite and > 0, got inf"),
    ({"eps": "0.1"}, "eps must be finite and > 0, got '0.1'"),
])
def test_flow_config_rejects_a_grid_it_cannot_tabulate(kwargs, says):
    f = forms.BoundaryField.constant(0.0, 256)
    with pytest.raises(ValueError) as info:
        FlowConfig(f=f, **kwargs)
    assert str(info.value) == says


def test_bodies_on_one_grid_share_the_grid_constants(blob):
    # every K_t of a flow reads the same read-only angles, frame and
    # spectral differentiation factors as K
    f = field(lambda t: np.cos(2 * t))
    body_t = geometry.wulff_perturb(blob, f, 0.05)
    for name in ("theta_grid", "normals_grid", "tangents_grid"):
        a, b = getattr(blob, name), getattr(body_t, name)
        assert a is b
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    fac = spectral._derivative_factor(blob.M, 2)
    assert fac is spectral._derivative_factor(body_t.M, 2)
    with pytest.raises(ValueError, match="read-only"):
        fac[1] = 0.0
    # the shared frame has the bits of one built afresh
    t = spectral.grid(blob.M)
    assert blob.theta_grid.tobytes() == t.tobytes()
    assert blob.normals_grid.tobytes() == np.stack([np.cos(t), np.sin(t)], axis=1).tobytes()
    assert blob.tangents_grid.tobytes() == np.stack([-np.sin(t), np.cos(t)], axis=1).tobytes()


BODIES = suite.standard_bodies()
CONVEX = {k: u for k, u in suite.standard_potentials().items() if k != "zero"}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(body=st.sampled_from(sorted(BODIES)), potential=st.sampled_from(sorted(CONVEX)),
       alpha=st.floats(0.1, 2.0))
def test_scaling_pair_and_homothety_flow_obey_the_varentropy_law(body, potential, alpha):
    # The homothety flow K_t = (1 + t) K, u_t = (1 + t) u(x / (1 + t)) has
    # S''(0) = Var - n with Var = Var_{mu|K}(u), and mu(K) S''(0) = -(P + BL - 2I)
    # gives the scaling pair (alpha h, alpha u*(grad u)) the mean slack
    # alpha^2 mu(K) (n - Var) / 2.  n - Var > 0 is the varentropy bound of the
    # log-concave mu|K, which is why criteria 4b and 5c read red.
    K, u = BODIES[body], CONVEX[potential]
    muK = quad.interior_integral(K, u)
    on_nodes = u.value(quad.interior_nodes(K)[0])
    var = (quad.interior_integral(K, u, on_nodes ** 2) / muK
           - (quad.interior_integral(K, u, on_nodes) / muK) ** 2)
    assert 2.0 - var > 0.0
    slack = forms.check_mean_form(K, u, *forms.equality_witness(K, u, alpha)).slack_mean
    assert slack == pytest.approx(alpha ** 2 * muK * (2.0 - var) / 2.0, rel=1e-12)
    d = flow.shape_derivatives(K, u, forms.BoundaryField(K.values),
                               measure.ConjugatePerturbation(u, 1.0))
    assert d["S2"] == pytest.approx(var - 2.0, rel=1e-12)
