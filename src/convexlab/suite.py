"""Standard bodies, potentials, and randomized fields for the checks.

The verification commands and the test suite draw from one fixed matrix of
configurations so that reported numbers are reproducible; all randomness goes
through explicitly seeded generators.
"""

import numpy as np

from .analysis import random_coefficients
from .geometry import DEFAULT_M, disk, ellipse, fourier_body
from .measure import (
    _qform,
    even_quartic_potential,
    gaussian_potential,
    quadratic_potential,
    zero_potential,
)
from .quad import InteriorField
from .spectral import BoundaryField, _grid_basis

__all__ = [
    "standard_bodies",
    "standard_potentials",
    "random_boundary_field",
    "random_interior_field",
]

FIELD_ORDER = 6  # harmonics of random_boundary_field


def standard_bodies(M=DEFAULT_M):
    return {
        "disk1": disk(1.0, M=M),
        "disk05": disk(0.5, M=M),
        "disk15": disk(1.5, M=M),
        "ellipse21": ellipse(2.0, 1.0, M=M),
        "ellipse12": ellipse(1.0, 2.0, M=M),
        # generic (non-symmetric) analytic body
        "blob": fourier_body(1.0, cos={2: 0.15}, sin={3: 0.05}, M=M),
        # origin-symmetric analytic body
        "peanut": fourier_body(1.0, cos={2: 0.1, 4: 0.02}, M=M),
    }


def standard_potentials():
    return {
        "gaussian": gaussian_potential(),
        "quad14": quadratic_potential([[1.0, 0.0], [0.0, 4.0]]),
        "quad12": quadratic_potential([[1.0, 0.0], [0.0, 2.0]]),
        "quad_mixed": quadratic_potential([[2.0, 0.6], [0.6, 1.0]]),
        "quartic": even_quartic_potential(0.1),
        "zero": zero_potential(),
    }


def random_boundary_field(rng, M):
    """Smooth random field: ``random_coefficients`` on the basis rows k <= FIELD_ORDER."""
    c = random_coefficients(rng, 2 * FIELD_ORDER + 1).tolist()
    vals = np.full(M, c[0])
    for ck, row in zip(c[1:], _grid_basis(FIELD_ORDER, M)[0][1:]):
        vals += ck * row
    return BoundaryField(vals)


def random_interior_field(rng):
    """Random quadratic or plane-wave field with analytic gradient."""
    if rng.random() < 0.5:
        C = rng.normal(scale=0.6, size=(2, 2))
        C = 0.5 * (C + C.T)
        b = rng.standard_normal(2)
        c = rng.standard_normal()

        def value(p, C=C, b=b, c=c):
            return 0.5 * _qform(p, C, p) + p @ b + c

        def grad(p, C=C, b=b):
            out = np.empty(p.shape)
            for j in range(2):  # C p + b, a column at a time (see the measure kernels)
                out[..., j] = 0.0 + p[..., 0] * C[j, 0] + p[..., 1] * C[j, 1] + b[j]
            return out

        return InteriorField(value, grad, descriptor={"kind": "random-quadratic"})
    a = rng.standard_normal()
    k = rng.uniform(-2.0, 2.0, size=2)
    delta = rng.uniform(0.0, 2.0 * np.pi)

    def value(p, a=a, k=k, delta=delta):
        return a * np.sin(p @ k + delta)

    def grad(p, a=a, k=k, delta=delta):
        ac = a * np.cos(p @ k + delta)
        out = np.empty(p.shape)
        for j in range(2):
            out[..., j] = ac * k[j]
        return out

    return InteriorField(value, grad, descriptor={"kind": "random-wave"})
