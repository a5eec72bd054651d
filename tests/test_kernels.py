"""The per-point 2x2 kernels of ``measure`` against the einsums they replace.

Each kernel writes out the arithmetic in np.einsum's own summation order, so
the two must agree bit for bit, the sign of zero included.  That agreement
rests on numpy's einsum loop order: these tests are what catches a numpy
release that changes it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexlab
from convexlab.measure import _dot2, _hgg, _matmul_2x2, _outer2, _qform


def _same_bits(expected, got):
    """np.array_equal on the bit patterns, so that -0.0 and +0.0 differ."""
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(expected).view(np.uint64))


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
