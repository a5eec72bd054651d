"""Trigonometric interpolation on a uniform periodic grid.

Everything in the library that lives on a boundary is a smooth 2*pi-periodic
function sampled at theta_j = 2*pi*j/M.  This module supplies the spectral
plumbing: real FFT coefficients, differentiation on the grid, evaluation of
the interpolant (and its derivatives) at arbitrary angles, and the
{1, cos k*theta, sin k*theta} basis used by the Galerkin solver.  Two
per-grid constants are built once each and shared as read-only arrays: the
differentiation factors, which depend on (M, order) alone, and the Galerkin
basis values and derivatives on the grid, which depend on (N, M) alone.
``BoundaryField`` is a function held by its grid samples, whose coefficients,
derivatives and values anywhere come from the functions here; a body's
support function is one (``geometry.SupportFunction2D``).
"""

import functools

import numpy as np

from .errors import InvalidInput

__all__ = [
    "BoundaryField",
    "grid",
    "coefficients",
    "grid_derivative",
    "evaluate",
    "basis_matrix",
]


def grid(M):
    """Uniform angles theta_j = 2*pi*j/M, j = 0..M-1."""
    return 2.0 * np.pi * np.arange(M) / M


def coefficients(values):
    """Real-FFT coefficients of grid samples (length M//2 + 1)."""
    return np.fft.rfft(np.asarray(values, dtype=float))


@functools.lru_cache(maxsize=64)
def _derivative_factor(M, order):
    """(i k)^order for the rfft modes of M samples, as a read-only array.

    ``order`` must be an integer >= 0: (i k)^-1 divides by zero at k = 0, and
    a fractional power is no derivative.
    """
    if not (isinstance(order, (int, np.integer)) and order >= 0):
        raise InvalidInput(f"derivative order must be an integer >= 0, got {order!r}")
    k = np.arange(M // 2 + 1, dtype=float)
    fac = (1j * k) ** order
    if order % 2 == 1 and M % 2 == 0:
        # odd derivative of the Nyquist mode is not representable on the grid
        fac[-1] = 0.0
    fac.flags.writeable = False
    return fac


def grid_derivative(values, order=1):
    """Spectral derivative of grid samples, returned on the same grid."""
    values = np.asarray(values, dtype=float)
    M = values.shape[-1]
    if order == 0:
        return values.copy()
    c = np.fft.rfft(values)
    return np.fft.irfft(c * _derivative_factor(M, order), n=M)


def evaluate(coeffs, M, theta, order=0):
    """Evaluate the trigonometric interpolant (or a derivative) anywhere.

    ``coeffs`` are unnormalized rfft coefficients of M samples.  At grid
    nodes and order 0 this reproduces the samples to machine precision.
    ``order`` may also be a sequence of orders: the phase matrix is built once
    for all of them, and a list with one array per order comes back.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise InvalidInput("the interpolant needs finite angles")
    orders = order if np.ndim(order) else [order]
    k = np.arange(len(coeffs))
    # weights: DC and (even-M) Nyquist count once, interior modes twice
    w = np.full(len(coeffs), 2.0)
    w[0] = 1.0
    if M % 2 == 0:
        w[-1] = 1.0
    phase = np.exp(1j * np.multiply.outer(theta, k))
    out = []
    for o in orders:
        c = coeffs * _derivative_factor(M, o) if o else coeffs
        out.append((phase * (w * c)).real.sum(axis=-1) / M)
    return out if np.ndim(order) else out[0]


def basis_matrix(N, theta, order=0):
    """Rows e_0 = 1, e_{2k-1} = cos k*theta, e_{2k} = sin k*theta, k <= N.

    Returns the (2N+1, len(theta)) matrix of basis values, spectrally
    differentiated ``order`` times.  ``order`` may also be a sequence of
    orders: cos and sin are computed once for all of them, and a list with
    one matrix per order comes back.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    orders = order if np.ndim(order) else [order]
    k = np.arange(1, N + 1)
    kt = np.multiply.outer(k, theta)
    c, s = np.cos(kt), np.sin(kt)
    out = []
    for o in orders:
        B = np.empty((2 * N + 1, theta.size))
        B[0] = 0.0 if o else 1.0
        # d/dtheta rotates the pair: (cos, sin) -> k*(-sin, cos)
        dc, ds = ((c, s), (s, c))[o % 2]
        sign_c, sign_s = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))[o % 4]
        ko = (k.astype(float) ** o)[:, None]
        B[1::2] = sign_c * ko * dc
        B[2::2] = sign_s * ko * ds
        out.append(B)
    return out if np.ndim(order) else out[0]


@functools.lru_cache(maxsize=8)
def _grid_basis(N, M):
    """basis_matrix(N, grid(M), (0, 1)): values E and derivatives D, read-only."""
    E, D = basis_matrix(N, grid(M), (0, 1))
    E.flags.writeable = False
    D.flags.writeable = False
    return E, D


@functools.lru_cache(maxsize=8)
def _harmonic(dim):
    """Harmonic k of each of the first dim basis rows: 0, 1, 1, 2, 2, ..., read-only."""
    k = (np.arange(dim) + 1) // 2
    k.flags.writeable = False
    return k


class BoundaryField:
    """Scalar function on the boundary, parameterized by normal angle.

    Stores grid samples, read-only; derivatives come from the trigonometric
    interpolant unless analytic derivative samples are supplied, which must
    be finite and of the values' shape and are stored read-only too.
    """

    _GRID_ERROR = "boundary field must be a 1-D sample array"
    _FINITE_ERROR = "boundary field samples must be finite"
    _MIN_M, _M_STEP = 0, 1  # a grid is 1-D, >= _MIN_M samples, a multiple of _M_STEP

    def __init__(self, values, dvalues=None):
        values = np.asarray(values, dtype=float).copy()
        if values.ndim != 1 or values.size < self._MIN_M or values.size % self._M_STEP:
            raise InvalidInput(self._GRID_ERROR)
        if not np.all(np.isfinite(values)):
            raise InvalidInput(self._FINITE_ERROR)
        values.flags.writeable = False  # coeffs() caches the FFT of these samples
        self.values = values
        self.M = values.size
        if dvalues is not None:
            dvalues = np.asarray(dvalues, dtype=float).copy()
            if dvalues.shape != values.shape:
                raise InvalidInput("boundary field derivative samples must match its values")
            if not np.all(np.isfinite(dvalues)):
                raise InvalidInput("boundary field derivative samples must be finite")
            dvalues.flags.writeable = False
        self._d1 = dvalues
        self._coeffs = None

    @classmethod
    def from_function(cls, fn, M):
        return cls(fn(grid(M)))

    @staticmethod
    def constant(c, M):
        return BoundaryField(np.full(M, float(c)), np.zeros(M))

    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = coefficients(self.values)
        return self._coeffs

    def deriv(self, order=1):
        if order == 1 and self._d1 is not None:
            return self._d1
        return grid_derivative(self.values, order)

    def eval(self, theta, order=0):
        """The interpolant or its derivatives at any angles; ``order`` as in ``evaluate``."""
        return evaluate(self.coeffs(), self.M, theta, order)

    # linear structure (bilinearity tests build combinations)
    def __add__(self, other):
        return BoundaryField(self.values + np.asarray(getattr(other, "values", other)))

    def __mul__(self, a):
        return BoundaryField(self.values * float(a))

    __rmul__ = __mul__
