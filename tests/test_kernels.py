"""The per-point 2x2 kernels of ``measure`` against the einsums they replace.

Each kernel writes out the arithmetic in np.einsum's own summation order, so
the two must agree bit for bit, the sign of zero included.  That agreement
rests on numpy's einsum loop order: these tests are what catches a numpy
release that changes it.  The kernels that write their results a column at a
time are checked the same way against the broadcast expressions they
replace, kept here as references.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexlab
from convexlab import measure
from convexlab.measure import _dot2, _hgg, _qform


def _same_bits(expected, got):
    """np.array_equal on the bit patterns, so that -0.0 and +0.0 differ."""
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(expected).view(np.uint64))


def _matmul_2x2(A, B):
    """einsum("ijk,ikl->ijl", A, B) for two (..., 2, 2) stacks.

    measure._flow_newton forms its Jacobian entry by entry in this order.
    """
    out = np.empty(np.broadcast_shapes(A.shape, B.shape))
    for j in range(2):
        for l in range(2):
            out[..., j, l] = 0.0 + A[..., j, 0] * B[..., 0, l] + A[..., j, 1] * B[..., 1, l]
    return out


def _outer2(p):
    """einsum("ij,ik->ijk", p, p) for a (..., 2) stack: the quartic Hessian's
    outer product before it was written a column at a time."""
    out = np.empty(p.shape + (2,))
    for j in range(2):
        for k in range(2):
            out[..., j, k] = 0.0 + p[..., j] * p[..., k]
    return out


@st.composite
def stacks(draw):
    """C-ordered point stacks with leading shape (n,) or (a, b), n up to 20,000.

    Stacks of one or two points, where einsum groups its sums differently,
    are drawn often on purpose.
    """
    size = st.one_of(st.integers(1, 3), st.integers(1, 140))
    if draw(st.booleans()):
        lead = (draw(st.one_of(st.integers(1, 3), st.integers(1, 20_000))),)
    else:
        lead = (draw(size), draw(size))
    scales = [10.0 ** draw(st.floats(-8.0, 8.0)) for _ in range(5)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.standard_normal(lead + (2,)) * scales[0]
    q = rng.standard_normal(lead + (2,)) * scales[1]
    H = rng.standard_normal(lead + (2, 2)) * scales[2]
    B = rng.standard_normal(lead + (2, 2)) * scales[3]
    A = rng.standard_normal((2, 2)) * scales[4]
    x0 = rng.standard_normal(2) * scales[4]
    for arr in (p, q, H, B):  # signed zeros, where einsum's +0.0 start shows
        flat = arr.reshape(-1)
        flat[rng.integers(0, flat.size, size=max(1, flat.size // 40))] = -0.0
    return p, q, H, B, A, x0


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_dot2_matches_einsum(data):
    p, q, H, _, A, x0 = data
    _same_bits(np.einsum("...i,...i->...", p, q), _dot2(p, q))
    _same_bits(np.einsum("...i,...i->...", p, np.broadcast_to(x0, p.shape)), _dot2(p, x0))
    # H v, v C and the stride-0 translation vector all reduce to _dot2
    _same_bits(np.einsum("...ij,...j->...i", H, q), _dot2(H, q[..., None, :]))
    _same_bits(np.einsum("...ij,...j->...i", H, np.broadcast_to(x0, q.shape)), _dot2(H, x0))
    _same_bits(np.einsum("...j,ij->...i", p, A), _dot2(p[..., None, :], A))
    if p.ndim == 2:
        _same_bits(np.einsum("ij,ij->i", p, q), _dot2(p, q))


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_qform_matches_einsum(data):
    p, q, _, _, A, _ = data
    _same_bits(np.einsum("...i,ij,...j->...", p, A, q), _qform(p, A, q))
    _same_bits(np.einsum("...i,ij,...j->...", p, A, p), _qform(p, A, p))
    if p.ndim == 2:
        _same_bits(np.einsum("ij,jk,ik->i", p, A, q), _qform(p, A, q))


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_hgg_matches_einsum(data):
    p, q, H, _, _, _ = data
    _same_bits(np.einsum("...ij,...j,...i->...", H, p, q), _hgg(H, p, q))
    _same_bits(np.einsum("...ij,...j,...i->...", H, p, p), _hgg(H, p, p))
    if p.ndim == 2:
        _same_bits(np.einsum("ijk,ik,ij->i", H, p, q), _hgg(H, p, q))


@settings(max_examples=60, deadline=None)
@given(stacks())
def test_matmul_and_outer_match_einsum(data):
    p, _, H, B, _, _ = data
    _same_bits(np.einsum("...ij,...jk->...ik", H, B), _matmul_2x2(H, B))
    _same_bits(np.einsum("...j,...k->...jk", p, p), _outer2(p))
    if p.ndim == 2:
        _same_bits(np.einsum("ijk,ikl->ijl", H, B), _matmul_2x2(H, B))
        _same_bits(np.einsum("ij,ik->ijk", p, p), _outer2(p))


@pytest.mark.parametrize("lead", [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (2, 2)],
                         ids=lambda lead: "x".join(map(str, lead)))
def test_tiny_stacks_match_einsum(lead):
    """One or two points: einsum sums each row of a 4-term form apart."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        p, q = rng.standard_normal(lead + (2,)), rng.standard_normal(lead + (2,))
        H, A = rng.standard_normal(lead + (2, 2)), rng.standard_normal((2, 2))
        _same_bits(np.einsum("...i,ij,...j->...", p, A, q), _qform(p, A, q))
        _same_bits(np.einsum("...ij,...j,...i->...", H, p, q), _hgg(H, p, q))
        if len(lead) == 1:
            _same_bits(np.einsum("ij,jk,ik->i", p, A, q), _qform(p, A, q))
            _same_bits(np.einsum("ijk,ik,ij->i", H, p, q), _hgg(H, p, q))


def test_hgg_order_contract_is_c_order():
    """With an F-ordered H einsum sums k outer and j inner, so _hgg's C-order
    contract is needed: the same values in F order give einsum other bits."""
    rng = np.random.default_rng(7)
    H = rng.standard_normal((1000, 2, 2))
    a = rng.standard_normal((1000, 2))
    b = rng.standard_normal((1000, 2))
    expected = np.einsum("ijk,ik,ij->i", H, a, b)
    _same_bits(expected, _hgg(H, a, b))
    _same_bits(expected, _hgg(np.asfortranarray(H), a, b))
    moved = np.einsum("ijk,ik,ij->i", np.asfortranarray(H), a, b)
    assert not np.array_equal(moved, expected)
    # only the summation order moved: the two differ by rounding of the terms
    size = _hgg(np.abs(H), np.abs(a), np.abs(b))
    assert np.all(np.abs(moved - expected) <= 1e-15 * size)


def test_no_einsum_in_the_package():
    """Per-point 2x2 algebra goes through the measure kernels, never np.einsum."""
    found = {}
    for path in sorted(Path(convexlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree)
                 if (isinstance(node, ast.Attribute) and node.attr == "einsum")
                 or (isinstance(node, ast.Name) and node.id == "einsum")
                 or (isinstance(node, ast.alias) and node.name.split(".")[-1] == "einsum")]
        if lines:
            found[path.name] = lines
    assert found == {}, f"einsum is back at {found}"


# -- column-wise kernels against the broadcast expressions they replace ------------


def _reference_dot2(a, b):
    """_dot2 as one expression, with a temporary per operation."""
    return 0.0 + a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _reference_qform(p, A, q):
    """_qform on strided views of its columns."""
    p0, p1, q0, q1 = p[..., 0], p[..., 1], q[..., 0], q[..., 1]
    t00, t01 = p0 * A[0, 0] * q0, p0 * A[0, 1] * q1
    t10, t11 = p1 * A[1, 0] * q0, p1 * A[1, 1] * q1
    if t00.size <= 2:
        return 0.0 + ((t00 + t01) + (t10 + t11))
    return 0.0 + t00 + t01 + t10 + t11


def _reference_quartic_grad(eps, p):
    n2 = _reference_dot2(p, p)
    return p * (1.0 + 4.0 * eps * n2)[:, None]


def _reference_quartic_hess(eps, p):
    n2 = _reference_dot2(p, p)
    out = _outer2(p) * (8.0 * eps)
    diag = 1.0 + 4.0 * eps * n2
    out[:, 0, 0] += diag
    out[:, 1, 1] += diag
    return out


def _reference_psi_grad(psi, y):
    flat = y.reshape(-1, 2)
    return (flat @ psi.B.T + psi.b).reshape(y.shape)


def _reference_closed_flow_value(u, psi, t, p):
    """The closed-form quadratic flow value, shifting p - t*b by broadcasting."""
    Minv = np.linalg.inv(np.linalg.inv(u.params["A"]) + t * psi.B)
    tb = t * psi.b
    const = u._value(np.zeros((1, 2)))[0] - t * psi.c
    q = p - tb
    return 0.5 * _reference_qform(q, Minv, q) + const


def _signed_zeros(rng, a, share):
    """Set about ``share`` of the entries of a to +0.0 or -0.0, in place."""
    flat = a.reshape(-1)
    hit = rng.random(flat.size) < share
    flat[hit] = np.copysign(0.0, rng.standard_normal(hit.sum()))
    return a


@st.composite
def clouds(draw):
    """(lead, points): flat stacks of 0-3 rows or up to 3,000, or stacked (Q, M, 2)
    clouds as the quadrature nodes are, with signed zeros among the entries."""
    if draw(st.booleans()):
        lead = (draw(st.one_of(st.integers(0, 3), st.integers(4, 3000))),)
    else:
        lead = (draw(st.integers(1, 8)), draw(st.integers(1, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.standard_normal(lead + (2,)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    return lead, _signed_zeros(rng, p, draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])))


_small_reals = st.floats(-2.0, 2.0).map(lambda v: 0.0 if abs(v) < 0.2 else v)


@settings(max_examples=60, deadline=None)
@given(clouds(), st.integers(0, 2**32 - 1))
def test_dot2_in_place_keeps_the_expression_bytes(cloud, seed):
    _, p = cloud
    rng = np.random.default_rng(seed)
    q = _signed_zeros(rng, rng.standard_normal(p.shape), 0.3)
    for a, b in ((p, p), (p, q), (-p, q), (p[..., None, :], np.ones((2, 2)))):
        _same_bits(_reference_dot2(a, b), _dot2(a, b))


@settings(max_examples=60, deadline=None)
@given(clouds(), st.one_of(st.just(0.0), st.just(0.1), st.floats(0.0, 5.0)))
def test_quartic_gradient_and_hessian_keep_the_broadcast_bytes(cloud, eps):
    lead, p = cloud
    u = measure.even_quartic_potential(eps)
    flat = p.reshape(-1, 2)
    _same_bits(_reference_quartic_grad(eps, flat).reshape(lead + (2,)), u.grad(p))
    _same_bits(_reference_quartic_hess(eps, flat).reshape(lead + (2, 2)), u.hess(p))


@settings(max_examples=60, deadline=None)
@given(clouds(), st.lists(_small_reals, min_size=5, max_size=5),
       st.sampled_from([0.0, -0.0, 1.0]))
def test_quadratic_psi_gradient_keeps_the_broadcast_bytes(cloud, coeffs, b_scale):
    _, y = cloud
    b00, b01, b11, b0, b1 = coeffs
    psi = measure.QuadraticPerturbation(B=[[b00, b01], [b01, b11]],
                                        b=[b_scale * b0, b_scale * b1])
    _same_bits(_reference_psi_grad(psi, y), psi.grad(y))


@settings(max_examples=60, deadline=None)
@given(clouds(), st.integers(0, 2**32 - 1))
def test_qform_on_contiguous_columns_keeps_the_strided_bytes(cloud, seed):
    _, p = cloud
    rng = np.random.default_rng(seed)
    q = _signed_zeros(rng, rng.standard_normal(p.shape), 0.05)
    A = _signed_zeros(rng, rng.standard_normal((2, 2)), 0.25)
    _same_bits(_reference_qform(p, A, p), _qform(p, A, p))
    _same_bits(_reference_qform(p, A, q), _qform(p, A, q))


@settings(max_examples=60, deadline=None)
@given(clouds(), st.sampled_from(["gaussian", "quad_mixed", "shifted"]),
       st.lists(_small_reals, min_size=6, max_size=6), st.floats(-0.3, 0.3))
def test_closed_form_quadratic_flow_value_keeps_the_broadcast_bytes(cloud, name, coeffs, t):
    lead, p = cloud
    u = {"gaussian": measure.gaussian_potential(),
         "quad_mixed": measure.quadratic_potential([[2.0, 0.6], [0.6, 1.0]]),
         "shifted": measure.shift_potential(measure.quadratic_potential([[1.0, 0.0],
                                                                         [0.0, 4.0]]), 0.7)}[name]
    b00, b01, b11, b0, b1, c = coeffs
    psi = measure.QuadraticPerturbation(B=[[0.2 * b00, 0.2 * b01], [0.2 * b01, 0.2 * b11]],
                                        b=[b0, b1], c=c)
    value = measure._flow_closed_form(u, psi, t)[0]
    flat = p.reshape(-1, 2)
    want = _reference_closed_flow_value(u, psi, t, flat)
    _same_bits(want, value(flat))
    _same_bits(want.reshape(lead), measure.flow_potential(u, psi, t).value(p))


# -- the entry-wise 2x2 solve, inverse and SPD test against their stacked forms ----


def _reference_spd_2x2(H):
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
    return (H[:, 0, 0] > 0) & (det > 0)


def _reference_solve_2x2(H, rhs):
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
    out = np.empty_like(rhs)
    out[:, 0] = (H[:, 1, 1] * rhs[:, 0] - H[:, 0, 1] * rhs[:, 1]) / det
    out[:, 1] = (H[:, 0, 0] * rhs[:, 1] - H[:, 1, 0] * rhs[:, 0]) / det
    return out


def _reference_inv_2x2(H):
    det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
    out = np.empty_like(H)
    out[:, 0, 0] = H[:, 1, 1] / det
    out[:, 1, 1] = H[:, 0, 0] / det
    out[:, 0, 1] = -H[:, 0, 1] / det
    out[:, 1, 0] = -H[:, 1, 0] / det
    return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 3), st.integers(4, 3000)), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.05, 0.5]))
def test_2x2_solve_inverse_and_spd_test_keep_the_stacked_bytes(m, seed, zeros):
    # _solve_2x2, _inv_2x2 and _spd_2x2 go through the entry-wise helpers that
    # _flow_newton calls on its Jacobian and dual Hessian entries
    rng = np.random.default_rng(seed)
    H = _signed_zeros(rng, rng.standard_normal((m, 2, 2)), zeros)
    rhs = _signed_zeros(rng, rng.standard_normal((m, 2)), zeros)
    with np.errstate(divide="ignore", invalid="ignore"):
        _same_bits(_reference_solve_2x2(H, rhs), measure._solve_2x2(H, rhs))
        _same_bits(_reference_inv_2x2(H), measure._inv_2x2(H))
    assert np.array_equal(_reference_spd_2x2(H), measure._spd_2x2(H))
