import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from convexlab import geometry, spectral, suite
from convexlab.errors import (InvalidInput, NotStrictlyConvex, OriginOutside,
                              PerturbationTooLarge)
from convexlab.forms import BoundaryField


def test_disk_support_and_curvature(disk1):
    npt.assert_allclose(disk1.values, 1.0)
    npt.assert_allclose(disk1.radius_grid, 1.0, atol=1e-12)
    assert disk1.is_even


def test_ellipse_support_function(ellipse21):
    t = ellipse21.theta_grid
    npt.assert_allclose(ellipse21.values,
                        np.sqrt(4 * np.cos(t) ** 2 + np.sin(t) ** 2), atol=1e-12)


def test_curvature_extremes(ellipse21):
    # curvature of the 2x1 ellipse ranges over [b/a^2, a/b^2] = [1/4, 2]
    curvature = 1.0 / ellipse21.radius_grid
    assert float(curvature.min()) == pytest.approx(0.25, abs=1e-9)
    assert float(curvature.max()) == pytest.approx(2.0, abs=1e-9)


def test_ellipse_curvature_radius_at_zero(ellipse21):
    # oracle: dense central differences of the analytic h, independent of FFT
    h = lambda t: np.sqrt(4 * np.cos(t) ** 2 + np.sin(t) ** 2)
    d = 1e-4
    r_fd = h(0.0) + (h(d) - 2 * h(0.0) + h(-d)) / d**2
    assert abs(r_fd - 0.5) < 1e-6  # b^2/a
    assert abs(geometry.boundary_point(ellipse21, 0.0).r - 0.5) < 1e-9


def test_fourier_convexity_acceptance_threshold():
    # h = 1 + c2*cos(2t): r = 1 - 3*c2*cos(2t), min = 1 - 3*c2
    body = geometry.fourier_body(1.0, cos={2: 0.3})
    assert float(body.radius_grid.min()) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(NotStrictlyConvex):
        geometry.fourier_body(1.0, cos={2: 0.4})


def test_boundary_point_disk(disk1):
    bp = geometry.boundary_point(disk1, 0.0)
    npt.assert_allclose(bp.x, [1.0, 0.0], atol=1e-12)
    npt.assert_allclose(bp.nu, [1.0, 0.0])
    assert bp.r == pytest.approx(1.0, abs=1e-12)


def test_boundary_point_norm_homogeneity():
    body = geometry.disk(2.5)
    for theta in np.linspace(0, 2 * np.pi, 17):
        bp = geometry.boundary_point(body, theta)
        assert np.hypot(*bp.x) == pytest.approx(2.5, abs=1e-12)


def test_boundary_point_ellipse_is_support_maximizer(ellipse21):
    # oracle: argmax of <x, e1> over a dense parametric sampling of the ellipse
    phi = np.linspace(0, 2 * np.pi, 20001)
    pts = np.stack([2 * np.cos(phi), np.sin(phi)], axis=1)
    best = pts[np.argmax(pts @ np.array([1.0, 0.0]))]
    bp = geometry.boundary_point(ellipse21, 0.0)
    npt.assert_allclose(bp.x, best, atol=1e-6)
    npt.assert_allclose(bp.x, [2.0, 0.0], atol=1e-10)


def test_support_identity_on_grid(disk1, ellipse21, blob):
    for body in (disk1, ellipse21, blob):
        lhs = np.einsum("ij,ij->i", body.boundary_grid, body.normals_grid)
        npt.assert_allclose(lhs, body.values, atol=1e-10)


def test_cauchy_perimeter_identity(disk1, ellipse21, blob, peanut):
    for body in (disk1, ellipse21, blob, peanut):
        w = 2 * np.pi / body.M
        assert abs(body.radius_grid.sum() * w - body.values.sum() * w) < 1e-10


def test_wulff_dilation(disk1):
    f = BoundaryField.constant(1.0, disk1.M)
    out = geometry.wulff_perturb(disk1, f, 0.3)
    npt.assert_allclose(out.values, 1.3)


def test_wulff_admissible_window(disk1):
    f = BoundaryField.from_function(lambda t: np.cos(2 * t), disk1.M)
    out = geometry.wulff_perturb(disk1, f, 0.2)
    t = disk1.theta_grid
    npt.assert_allclose(out.radius_grid, 1 - 0.6 * np.cos(2 * t), atol=1e-10)
    with pytest.raises(PerturbationTooLarge):
        geometry.wulff_perturb(disk1, f, 0.5)


def test_minkowski_combination(disk1, ellipse21):
    npt.assert_allclose(
        geometry.minkowski_combine(ellipse21, disk1, 0.0).values, ellipse21.values)
    d3 = geometry.disk(3.0)
    npt.assert_allclose(geometry.minkowski_combine(disk1, d3, 0.5).values, 2.0)
    mid = geometry.minkowski_combine(ellipse21, disk1, 0.5)
    assert mid.h(0.0) == pytest.approx(1.5, abs=1e-12)


def test_wulff_equals_minkowski_path(disk1, ellipse21):
    f = BoundaryField(ellipse21.values - disk1.values)
    for t in (0.25, 0.7):
        w = geometry.wulff_perturb(disk1, f, t)
        m = geometry.minkowski_combine(disk1, ellipse21, t)
        npt.assert_array_equal(w.values, m.values)


def test_center_removes_translation(disk1):
    t = spectral.grid(256)
    moved = geometry.SupportFunction2D(1.0 + 5.0 * np.cos(t))
    centered = geometry.center(moved)
    npt.assert_allclose(centered.values, 1.0, atol=1e-12)


def test_center_fixed_point_and_idempotence(ellipse21, blob):
    for body in (ellipse21, blob):
        once = geometry.center(body)
        npt.assert_allclose(once.values, geometry.center(once).values, atol=1e-13)
    npt.assert_allclose(geometry.center(ellipse21).values, ellipse21.values, atol=1e-12)


def test_center_round_trip(blob, rng):
    shift = np.array([0.37, -0.21])
    t = blob.theta_grid
    moved = geometry.SupportFunction2D(
        blob.values + shift[0] * np.cos(t) + shift[1] * np.sin(t))
    back = geometry.center(moved)
    npt.assert_allclose(back.values, blob.values, atol=1e-12)
    npt.assert_allclose(geometry.steiner_point(moved), shift, atol=1e-12)


def test_gauge_disk_and_ellipse(disk1, ellipse21):
    d2 = geometry.disk(2.0)
    x = np.array([0.3, -0.4])
    assert geometry.gauge(d2, x) == pytest.approx(0.25, abs=1e-12)
    assert geometry.gauge(ellipse21, np.array([1.0, 1.0])) == pytest.approx(
        np.sqrt(0.25 + 1.0), abs=1e-10)
    assert geometry.gauge(disk1, np.zeros(2)) == 0.0


def test_gauge_is_one_on_boundary(ellipse21, blob):
    for body in (ellipse21, blob):
        for j in range(0, body.M, 37):
            x = body.boundary_grid[j]
            assert abs(geometry.gauge(body, x) - 1.0) < 1e-10


@settings(max_examples=40, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=1.0),
       j=st.integers(min_value=0, max_value=255))
def test_gauge_homogeneity_on_rays(s, j):
    body = geometry.ellipse(2.0, 1.0)
    x = s * body.boundary_grid[j]
    assert abs(geometry.gauge(body, x) - s) < 1e-8


STANDARD_BODIES = suite.standard_bodies()


def _scalar_gauge_angle(body, x, newton_steps=20, tol=1e-12):
    """One-point reference: the scalar Newton that the batched gauge replaced."""
    if np.hypot(x[0], x[1]) == 0.0:
        return 0.0, 0.0

    def objective(theta):
        c, s = np.cos(theta), np.sin(theta)
        num, num1 = x[0] * c + x[1] * s, -x[0] * s + x[1] * c
        h0, h1, h2 = body.h(theta), body.h(theta, 1), body.h(theta, 2)
        g1 = num1 / h0 - num * h1 / h0**2
        g2 = (-num / h0 - 2.0 * num1 * h1 / h0**2
              - num * h2 / h0**2 + 2.0 * num * h1**2 / h0**3)
        return num / h0, g1, g2

    g_grid = (body.normals_grid @ x) / body.values
    j = int(np.argmax(g_grid))
    theta = body.theta_grid[j]
    best_g, best_t = g_grid[j], theta
    step_cap = 2.0 * (2.0 * np.pi / body.M)
    for _ in range(newton_steps):
        g, g1, g2 = objective(theta)
        if g > best_g:
            best_g, best_t = g, theta
        if g2 >= 0.0:
            break
        step = float(np.clip(-g1 / g2, -step_cap, step_cap))
        theta += step
        if abs(step) < tol:
            g = objective(theta)[0]
            if g > best_g:
                best_g, best_t = g, theta
            break
    return float(best_g), float(best_t % (2.0 * np.pi))


_coords = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(STANDARD_BODIES)),
       X=hnp.arrays(float, st.one_of(st.tuples(st.integers(0, 30), st.just(2)),
                                     st.tuples(st.integers(0, 4), st.integers(0, 4),
                                               st.just(2))),
                    elements=_coords),
       data=st.data())
def test_gauge_angle_batch_equals_single_point_calls(name, X, data):
    body = STANDARD_BODIES[name]
    flat = X.reshape(-1, 2)
    origin = data.draw(hnp.arrays(bool, len(flat)))
    flat[origin] = 0.0  # rows at the origin give (0, 0)
    s, theta = geometry.gauge_angle(body, X)
    ref = np.array([geometry.gauge_angle(body, x) for x in flat], dtype=float)
    ref = ref.reshape(X.shape)  # (..., 2) stack of one-point (s, theta)
    assert s.shape == theta.shape == X.shape[:-1]
    assert s.tobytes() == ref[..., 0].tobytes()
    assert theta.tobytes() == ref[..., 1].tobytes()
    assert np.all(s.reshape(-1)[origin] == 0.0) and np.all(theta.reshape(-1)[origin] == 0.0)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(STANDARD_BODIES)),
       X=hnp.arrays(float, st.tuples(st.integers(1, 8), st.just(2)), elements=_coords),
       newton_steps=st.one_of(st.integers(0, 4), st.just(20)),
       tol=st.sampled_from([1e-12, 1e-6, 1e-2]))
def test_gauge_angle_matches_scalar_newton(name, X, newton_steps, tol):
    body = STANDARD_BODIES[name]
    ref = np.array([_scalar_gauge_angle(body, x, newton_steps, tol) for x in X])
    s, theta = geometry.gauge_angle(body, X, newton_steps, tol)
    assert s.tobytes() == ref[:, 0].tobytes() and theta.tobytes() == ref[:, 1].tobytes()
    one = geometry.gauge_angle(body, X[0], newton_steps, tol)
    assert all(type(v) is float for v in one)
    assert np.array(one).tobytes() == ref[0].tobytes()


def test_gauge_angle_stack_edge_cases(ellipse21, rng):
    s, theta = geometry.gauge_angle(ellipse21, np.zeros((0, 2)))
    assert s.shape == theta.shape == (0,)
    assert geometry.gauge_angle(ellipse21, np.zeros(2)) == (0.0, 0.0)
    X = rng.normal(size=(3, 4, 2))
    s, theta = geometry.gauge_angle(ellipse21, X)
    assert s.shape == theta.shape == (3, 4)
    assert geometry.gauge(ellipse21, X).tobytes() == s.tobytes()
    for bad in (np.nan, np.inf):
        X[1, 2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            geometry.gauge_angle(ellipse21, X)
    with pytest.raises(ValueError, match=r"\(\.\.\., 2\)"):
        geometry.gauge_angle(ellipse21, np.ones(4))


def test_make_body_dispatch_and_errors():
    d = geometry.make_body({"kind": "disk", "radius": 2.0})
    npt.assert_allclose(d.values, 2.0)
    e = geometry.make_body({"kind": "ellipse", "a": 2.0, "b": 1.0})
    assert e.descriptor["kind"] == "ellipse"
    with pytest.raises(ValueError):
        geometry.make_body({"kind": "pentagon"})
    with pytest.raises(ValueError):
        geometry.disk(-1.0)


@pytest.mark.parametrize("desc, key", [
    ({"kind": "disk", "radius": 2, "a": 5}, "'a'"),
    ({"kind": "ellipse", "a": 2, "b": 1, "radius": 1}, "'radius'"),
    ({"kind": "fourier", "c0": 1, "cos": {2: 0.1}, "b": 1}, "'b'"),
    ({"kind": "disk", "M": 128}, "'M'"),
    ({"radius": 1}, "unknown body kind None"),
], ids=["disk-a", "ellipse-radius", "fourier-b", "disk-M", "no-kind"])
def test_make_body_rejects_keys_its_kind_does_not_read(desc, key):
    with pytest.raises(ValueError, match=key):
        geometry.make_body(desc)


def test_hull_body_is_valid_and_contains_centroid(rng):
    pts = rng.normal(size=(40, 2))
    body = geometry.hull_body(pts)
    assert body.radius_grid.min() > 0
    assert body.values.min() > 0  # centered, origin interior


def test_origin_outside_guard():
    t = spectral.grid(256)
    # valid support function whose origin is exterior after no centering
    vals = 1.0 + 1.5 * np.cos(t)
    body = geometry.SupportFunction2D(vals)
    with pytest.raises(OriginOutside):
        body.require_interior_origin()


def test_evenness_flag(disk1, ellipse21, blob, peanut):
    assert disk1.is_even and ellipse21.is_even and peanut.is_even
    assert not blob.is_even


@pytest.mark.parametrize("make, error, says", [
    (lambda: geometry.SupportFunction2D(np.ones(62)), InvalidInput,
     "support function needs an even grid of >= 64 samples"),
    (lambda: geometry.SupportFunction2D(np.ones(65)), InvalidInput,
     "support function needs an even grid of >= 64 samples"),
    (lambda: geometry.SupportFunction2D(np.ones((2, 64))), InvalidInput,
     "support function needs an even grid of >= 64 samples"),
    (lambda: geometry.SupportFunction2D(np.r_[np.ones(63), np.inf]), InvalidInput,
     "support function samples must be finite"),
    (lambda: geometry.ellipse(0.0, 1.0), InvalidInput, "ellipse semi-axes must be positive"),
    (lambda: geometry.ellipse(1.0, -2.0), InvalidInput, "ellipse semi-axes must be positive"),
    (lambda: geometry.hull_body([[0.0, 0.0], [1.0, 0.0]]), InvalidInput,
     "hull_body needs at least 3 points"),
    # three copies of one point: h is a pure first harmonic, so h + h'' is
    # rounding noise at every smoothing
    (lambda: geometry.hull_body([[0.5, 0.2]] * 3), NotStrictlyConvex,
     "hull smoothing failed to produce a strictly convex body"),
    # a point at the origin: h == 0, which passes the convexity floor of 0
    (lambda: geometry.hull_body([[0.0, 0.0]] * 3), OriginOutside,
     "Steiner-point centering left h <= 0; body is degenerate"),
    (lambda: geometry.fourier_body(0.0), OriginOutside,
     "Steiner-point centering left h <= 0; body is degenerate"),
    (lambda: geometry.wulff_perturb(geometry.disk(1.0), np.ones(128), 0.1), ValueError,
     "perturbation grid does not match the body grid"),
    (lambda: geometry.minkowski_combine(geometry.disk(1.0), geometry.disk(1.0, M=128), 0.5),
     ValueError, "bodies live on different grids"),
    (lambda: geometry.minkowski_combine(geometry.disk(1.0), geometry.disk(2.0), 1.5),
     InvalidInput, "t must lie in [0, 1]"),
    (lambda: geometry.minkowski_combine(geometry.disk(1.0), geometry.disk(2.0), -0.1),
     InvalidInput, "t must lie in [0, 1]"),
    (lambda: geometry.minkowski_combine(geometry.disk(1.0), geometry.disk(2.0), np.nan),
     InvalidInput, "t must lie in [0, 1]"),
], ids=["M-62", "M-odd", "2-d", "non-finite", "ellipse-a-0", "ellipse-b-negative",
        "hull-2-points", "hull-one-point", "hull-origin", "fourier-point", "wulff-grid",
        "minkowski-grids", "minkowski-t-above", "minkowski-t-below", "minkowski-t-nan"])
def test_geometry_input_checks_name_the_problem(make, error, says):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == says


def test_hull_body_widens_its_smoothing_until_strictly_convex():
    # a triangle's hull smoothed at HULL_SMOOTHING = 0.15 dips below the
    # convexity floor between its corners; one widening by 1.5 gives a
    # strictly convex body
    body = geometry.hull_body([[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]])
    assert body.descriptor["smoothing"] == geometry.HULL_SMOOTHING * 1.5
    assert body.radius_grid.min() > geometry.CONVEXITY_RTOL * body.radius_grid.max()
