import ast
import pathlib

import numpy as np
import pytest

from convexlab import quad
from convexlab.forms import BoundaryField, InteriorField
from convexlab.geometry import ellipse, fourier_body
from convexlab.measure import zero_potential


def test_boundary_integrals_closed_forms(disk1, gaussian, lebesgue):
    assert quad.boundary_integral(disk1, gaussian, 1.0) == pytest.approx(
        2 * np.pi * np.exp(-0.5), abs=1e-12)
    assert quad.boundary_integral(disk1, lebesgue, 1.0) == pytest.approx(
        2 * np.pi, abs=1e-12)
    g = BoundaryField.from_function(np.cos, disk1.M)
    assert abs(quad.boundary_integral(disk1, gaussian, g)) < 1e-14


def test_interior_integrals_closed_forms(disk1, gaussian, lebesgue):
    assert quad.interior_integral(disk1, lebesgue, 1.0) == pytest.approx(
        np.pi, abs=1e-12)
    assert quad.interior_integral(disk1, gaussian, 1.0) == pytest.approx(
        2 * np.pi * (1 - np.exp(-0.5)), abs=1e-12)


def test_interior_jacobian_against_monte_carlo_area():
    # rejection sampling with the exact ellipse membership test; the quadrature
    # Jacobian s*h*r is what is under audit here
    body = ellipse(2.0, 1.0)
    u = zero_potential()
    area = quad.interior_integral(body, u, 1.0)
    rng = np.random.default_rng(123)
    n = 1_000_000
    pts = rng.uniform([-2.0, -1.0], [2.0, 1.0], size=(n, 2))
    inside = (pts[:, 0] ** 2 / 4.0 + pts[:, 1] ** 2) <= 1.0
    box = 8.0
    est = box * inside.mean()
    se = box * np.sqrt(inside.mean() * (1 - inside.mean()) / n)
    assert abs(area - 2 * np.pi) < 1e-10
    assert abs(est - area) < 3 * se


def test_interior_matches_monte_carlo_weighted(gaussian):
    # generic body, membership via the full supporting-halfplane description
    body = fourier_body(1.0, cos={2: 0.15}, sin={3: 0.05})
    val = quad.interior_integral(body, gaussian, 1.0)
    rng = np.random.default_rng(7)
    n = 200_000
    lim = body.values.max()
    pts = rng.uniform(-lim, lim, size=(n, 2))
    inside = np.empty(n, dtype=bool)
    for lo in range(0, n, 40_000):
        chunk = pts[lo:lo + 40_000]
        inside[lo:lo + 40_000] = np.all(
            chunk @ body.normals_grid.T <= body.values[None, :], axis=1)
    w = np.where(inside, np.exp(-gaussian.value(pts)), 0.0)
    box = (2 * lim) ** 2
    est = box * w.mean()
    se = box * w.std() / np.sqrt(n)
    assert abs(est - val) < 3 * se


def test_divergence_identity_all_pairs(disk1, ellipse21, blob, gaussian, quad14,
                                       quartic):
    # int_dK h dmu = 2 mu(K) - int_K <grad u, x> dmu   (n = 2)
    for body in (disk1, ellipse21, blob):
        for u in (gaussian, quad14, quartic):
            lhs = quad.boundary_integral(body, u, body.values)
            moment = InteriorField(
                lambda p, u=u: np.einsum("...i,...i->...", u.grad(p), p))
            rhs = 2 * quad.interior_integral(body, u, 1.0) - quad.interior_integral(
                body, u, moment)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_spectral_convergence_gate(gaussian):
    vals = {}
    for M in (256, 512):
        body = ellipse(2.0, 1.0, M=M)
        vals[M] = (quad.interior_integral(body, gaussian, 1.0, Q=32),
                   quad.boundary_integral(body, gaussian, 1.0))
    for a, b in zip(vals[256], vals[512]):
        assert abs(a - b) <= 1e-11 * max(1.0, abs(b))


def test_interior_q_doubling(gaussian, ellipse21):
    a = quad.interior_integral(ellipse21, gaussian, 1.0, Q=32)
    b = quad.interior_integral(ellipse21, gaussian, 1.0, Q=64)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_interior_requires_interior_origin(gaussian):
    from convexlab.errors import OriginOutside
    from convexlab.geometry import SupportFunction2D
    from convexlab.spectral import grid

    t = grid(256)
    body = SupportFunction2D(1.0 + 1.5 * np.cos(t))
    with pytest.raises(OriginOutside):
        quad.interior_integral(body, gaussian, 1.0)


def test_radial_rule_is_the_leggauss_transform():
    for Q in (16, 32, 64):
        x, w = np.polynomial.legendre.leggauss(Q)
        s, sw = quad._radial_rule(Q)
        assert np.array_equal(s, 0.5 * (x + 1.0)) and np.array_equal(sw, 0.5 * w)
        assert quad._radial_rule(Q) is quad._radial_rule(Q)
        assert not s.flags.writeable and not sw.flags.writeable
        with pytest.raises(ValueError):
            s[0] = 0.0


def test_only_quad_touches_the_store():
    # the per-(body, u, Q) store is quad's own: other layers read its readers
    users = {path.name for path in pathlib.Path(quad.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if {getattr(node, k, None) for k in ("id", "attr", "name")}
             & {"_shared", "_SHARED"}}
    assert users == {"quad.py"}


def test_non_finite_integral_names_the_integrand(disk1, gaussian):
    from convexlab.errors import ConvexLabError, NonFiniteIntegral
    from convexlab.measure import Potential
    from convexlab.pde import concavity_power

    nan_u = Potential("nan", lambda p: np.full(len(p), np.nan), lambda p: np.zeros(p.shape),
                      lambda p: np.broadcast_to(np.eye(2), (len(p), 2, 2)).copy())
    with pytest.raises(NonFiniteIntegral, match="'nan'"):
        quad.interior_integral(disk1, nan_u, 1.0)
    blowup = InteriorField(lambda p: np.where(p[..., 0] > 0, np.inf, 0.0),
                           descriptor={"kind": "blow-up"})
    with pytest.raises(NonFiniteIntegral, match="interior integral of .*blow-up"):
        quad.interior_integral(disk1, gaussian, blowup)
    with pytest.raises(ConvexLabError):
        concavity_power(disk1, nan_u)


def test_non_finite_boundary_integral_raises(disk1, gaussian):
    from convexlab.errors import NonFiniteIntegral
    from convexlab.measure import Potential

    nan_u = Potential("nan", lambda p: np.full(len(p), np.nan), lambda p: np.zeros(p.shape),
                      lambda p: np.broadcast_to(np.eye(2), (len(p), 2, 2)).copy())
    with pytest.raises(NonFiniteIntegral, match="boundary integral .*'nan'"):
        quad.boundary_integral(disk1, nan_u, 1.0)
    spike = np.zeros(disk1.M)
    spike[3] = np.inf
    with pytest.raises(NonFiniteIntegral, match="boundary integral"):
        quad.boundary_integral(disk1, gaussian, spike)


def test_boundary_integral_refuses_an_array_off_the_body_grid(disk1, gaussian):
    for g in (np.ones(disk1.M + 1), np.ones((2, disk1.M))):
        with pytest.raises(ValueError, match="^boundary integrand does not match the body grid$"):
            quad.boundary_integral(disk1, gaussian, g)


def test_interior_integral_takes_values_at_the_nodes(disk1, gaussian):
    from convexlab.errors import NonFiniteIntegral

    field = InteriorField(lambda p: np.cos(p[..., 0]) + p[..., 1] ** 2)
    vals = field.value(quad.interior_nodes(disk1)[0])
    assert quad.interior_integral(disk1, gaussian, vals) == quad.interior_integral(
        disk1, gaussian, field)
    for g in (vals.ravel(), vals[:, :-1]):
        with pytest.raises(ValueError,
                           match="^interior integrand does not match the quadrature nodes$"):
            quad.interior_integral(disk1, gaussian, g)
    vals[0, 0] = np.nan
    with pytest.raises(NonFiniteIntegral, match="^interior integral of node values against "):
        quad.interior_integral(disk1, gaussian, vals)


def test_interior_integral_refuses_what_is_no_field(disk1, gaussian):
    for g in (lambda p: np.ones(p.shape[:-1]), [1.0, 2.0], None):
        with pytest.raises(ValueError, match="^interior integrand must be a scalar, an "
                                             "InteriorField or node values, not "):
            quad.interior_integral(disk1, gaussian, g)
