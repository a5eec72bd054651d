import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexlab import spectral


def smooth_samples(M, rng):
    t = spectral.grid(M)
    vals = np.full(M, rng.standard_normal())
    for k in range(1, 9):
        vals += rng.standard_normal() / (1 + k * k) * np.cos(k * t)
        vals += rng.standard_normal() / (1 + k * k) * np.sin(k * t)
    return t, vals


def test_interpolant_reproduces_grid_values(rng):
    t, vals = smooth_samples(128, rng)
    c = spectral.coefficients(vals)
    npt.assert_allclose(spectral.evaluate(c, 128, t), vals, atol=1e-13)


def test_evaluate_between_nodes_matches_series(rng):
    # band-limited input: the interpolant is the function itself
    t = spectral.grid(64)
    vals = 1.0 + 0.3 * np.cos(2 * t) - 0.1 * np.sin(5 * t)
    c = spectral.coefficients(vals)
    theta = np.array([0.1234, 1.9, 4.5])
    expected = 1.0 + 0.3 * np.cos(2 * theta) - 0.1 * np.sin(5 * theta)
    npt.assert_allclose(spectral.evaluate(c, 64, theta), expected, atol=1e-13)


def test_grid_derivative_matches_analytic():
    t = spectral.grid(128)
    vals = np.cos(3 * t) + 0.5 * np.sin(t)
    d1 = spectral.grid_derivative(vals, 1)
    d2 = spectral.grid_derivative(vals, 2)
    npt.assert_allclose(d1, -3 * np.sin(3 * t) + 0.5 * np.cos(t), atol=1e-12)
    npt.assert_allclose(d2, -9 * np.cos(3 * t) - 0.5 * np.sin(t), atol=1e-11)


def test_derivative_matches_finite_differences(rng):
    _, vals = smooth_samples(256, rng)
    c = spectral.coefficients(vals)
    theta = rng.uniform(0, 2 * np.pi, size=12)
    h = 1e-5
    fd = (spectral.evaluate(c, 256, theta + h) - spectral.evaluate(c, 256, theta - h)) / (2 * h)
    npt.assert_allclose(spectral.evaluate(c, 256, theta, order=1), fd, atol=1e-8)


def test_basis_matrix_values_and_derivatives():
    theta = spectral.grid(64)
    E = spectral.basis_matrix(3, theta)
    D = spectral.basis_matrix(3, theta, order=1)
    npt.assert_allclose(E[0], 1.0)
    npt.assert_allclose(E[3], np.cos(2 * theta))
    npt.assert_allclose(E[4], np.sin(2 * theta))
    npt.assert_allclose(D[3], -2 * np.sin(2 * theta))
    npt.assert_allclose(D[0], 0.0)


def test_evaluate_several_orders_matches_one_order_calls(rng):
    # one phase matrix serves every order of the sequence, bit for bit
    for M in (64, 65):
        _, vals = smooth_samples(M, rng)
        c = spectral.coefficients(vals)
        theta = rng.uniform(-1.0, 8.0, size=(5, 7))
        together = spectral.evaluate(c, M, theta, (2, 0, 3, 1))
        assert len(together) == 4
        for got, order in zip(together, (2, 0, 3, 1)):
            assert got.tobytes() == spectral.evaluate(c, M, theta, order).tobytes()
        one, = spectral.evaluate(c, M, 0.3, [1])
        assert one.shape == () and one == spectral.evaluate(c, M, 0.3, 1)


def test_basis_matrix_several_orders_matches_one_order_calls(rng):
    # cos and sin once per k serve every order of the sequence, bit for bit
    for N, theta in ((4, spectral.grid(64)), (7, rng.uniform(-1.0, 8.0, size=33)),
                     (44, spectral.grid(256))):
        orders = (2, 0, 3, 1, 4, 5)
        together = spectral.basis_matrix(N, theta, orders)
        assert len(together) == len(orders)
        for got, order in zip(together, orders):
            assert got.tobytes() == spectral.basis_matrix(N, theta, order).tobytes()
            if N < 32:
                # and each order is the spectral derivative of the values
                fd = spectral.grid_derivative(spectral.basis_matrix(N, spectral.grid(64)), order)
                npt.assert_allclose(spectral.basis_matrix(N, spectral.grid(64), order), fd,
                                    atol=1e-10 * N**order)
        one, = spectral.basis_matrix(N, theta, [1])
        assert one.tobytes() == spectral.basis_matrix(N, theta, 1).tobytes()


def _reference_basis_matrix(N, theta, order):
    """The per-k loop basis_matrix replaced: one cos/sin pair and two row writes per k."""
    theta = np.asarray(theta, dtype=float)
    B = np.empty((2 * N + 1, theta.size))
    B[0] = 0.0 if order else 1.0
    for k in range(1, N + 1):
        kt = k * theta
        c, s = np.cos(kt), np.sin(kt)
        dc, ds = ((c, s), (s, c))[order % 2]
        sign_c, sign_s = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))[order % 4]
        B[2 * k - 1] = sign_c * float(k) ** order * dc
        B[2 * k] = sign_s * float(k) ** order * ds
    return B


@settings(max_examples=80, deadline=None)
@given(N=st.integers(0, 48), orders=st.lists(st.integers(0, 5), min_size=1, max_size=4),
       grid=st.sampled_from([0, 64, 256, 512]), seed=st.integers(0, 2**32 - 1),
       size=st.integers(0, 97))
@example(N=32, orders=[0, 1], grid=64, seed=0, size=0)  # the Nyquist order of the grid
def test_basis_matrix_matches_per_k_loop_bytes(N, orders, grid, seed, size):
    # one outer product k*theta and one cos/sin round exactly as the per-k loop
    theta = (spectral.grid(grid) if grid
             else np.random.default_rng(seed).uniform(-10.0, 20.0, size=size))
    together = spectral.basis_matrix(N, theta, orders)
    for got, order in zip(together, orders):
        assert got.tobytes() == _reference_basis_matrix(N, theta, order).tobytes()
    assert (spectral.basis_matrix(N, theta, orders[0]).tobytes()
            == _reference_basis_matrix(N, theta, orders[0]).tobytes())


def test_a_fields_values_cannot_change_under_its_cached_fft():
    # eval() caches the FFT of the samples; a write to them would leave it stale
    f = spectral.BoundaryField(np.cos(spectral.grid(64)))
    assert f.eval(0.0) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] += 1.0
    assert f.values[0] == 1.0 and f.eval(0.0) == pytest.approx(1.0, abs=1e-14)


def test_a_fields_derivative_samples_are_read_only():
    # deriv() hands out the stored samples themselves, so a write would change the field
    t = spectral.grid(64)
    f = spectral.BoundaryField(np.cos(t), -np.sin(t))
    with pytest.raises(ValueError, match="read-only"):
        f.deriv()[:] *= 2.0
    assert f.deriv().tobytes() == (-np.sin(t)).tobytes()


def test_assemble_builds_the_basis_once():
    # the basis depends on (N, M) alone: two bodies on one grid share one read-only E and D
    from convexlab import geometry, measure, pde

    u = measure.gaussian_potential()
    one = pde.assemble(geometry.ellipse(2.0, 1.0), u, N=12)
    two = pde.assemble(geometry.disk(1.5), u, N=12)
    assert one.E is two.E and one.D is two.D
    assert not one.E.flags.writeable and not one.D.flags.writeable
    theta = one.body.theta_grid
    assert one.E.tobytes() == spectral.basis_matrix(12, theta, 0).tobytes()
    assert one.D.tobytes() == spectral.basis_matrix(12, theta, 1).tobytes()
    # the even-only system keeps the rows of even harmonic
    even = pde.assemble(geometry.ellipse(2.0, 1.0), u, N=12, even_only=True)
    mask = spectral._harmonic(one.dim) % 2 == 0
    assert even.E.tobytes() == one.E[mask].tobytes()
    assert even.D.tobytes() == one.D[mask].tobytes()


def _even_rows(N):
    """Basis indices of {1, cos 2k, sin 2k}, written out."""
    idx = [0]
    for k in range(2, N + 1, 2):
        idx.extend([2 * k - 1, 2 * k])
    return idx


def _odd_rows(N):
    """Basis indices of {cos k, sin k} for odd k, written out."""
    return ([2 * k - 1 for k in range(1, N + 1, 2)]
            + [2 * k for k in range(1, N + 1, 2)])


def test_harmonic_table_selects_the_written_out_rows():
    for N in range(4, 45):
        k = spectral._harmonic(2 * N + 1)
        assert k is spectral._harmonic(2 * N + 1) and not k.flags.writeable
        assert k[:5].tolist() == [0, 1, 1, 2, 2]
        assert np.flatnonzero(k % 2 == 0).tolist() == _even_rows(N), N
        assert np.flatnonzero(k % 2 == 1).tolist() == sorted(_odd_rows(N)), N


def test_gauge_takes_one_evaluation_per_newton_iteration(monkeypatch):
    from convexlab import geometry

    calls = []
    evaluate = spectral.evaluate

    def counted(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(spectral, "evaluate", counted)
    body = geometry.ellipse(2.0, 1.0)
    geometry.gauge_angle(body, np.random.default_rng(4).normal(size=(50, 2)), newton_steps=5)
    assert 1 <= len(calls) <= 6
