"""Standard bodies, potentials, and randomized fields for the checks.

The verification commands and the test suite draw from one fixed matrix of
configurations so that reported numbers are reproducible; all randomness goes
through explicitly seeded generators.
"""

import numpy as np

from .forms import BoundaryField, InteriorField
from .geometry import disk, ellipse, fourier_body
from .measure import (
    _dot2,
    _qform,
    even_quartic_potential,
    gaussian_potential,
    quadratic_potential,
    zero_potential,
)

__all__ = [
    "standard_bodies",
    "standard_potentials",
    "random_boundary_field",
    "random_interior_field",
]

FIELD_ORDER, FIELD_DECAY = 6, 2.0  # harmonics and falloff of random_boundary_field


def standard_bodies(M=256):
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
    """Smooth random field: harmonics k <= FIELD_ORDER, 1/(1+k^FIELD_DECAY) falloff."""
    t = 2.0 * np.pi * np.arange(M) / M
    vals = np.full(M, rng.standard_normal())
    for k in range(1, FIELD_ORDER + 1):
        w = 1.0 / (1.0 + float(k) ** FIELD_DECAY)
        vals += w * rng.standard_normal() * np.cos(k * t)
        vals += w * rng.standard_normal() * np.sin(k * t)
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
            return _dot2(p[..., None, :], C) + b

        return InteriorField(value, grad, descriptor={"kind": "random-quadratic"})
    a = rng.standard_normal()
    k = rng.uniform(-2.0, 2.0, size=2)
    delta = rng.uniform(0.0, 2.0 * np.pi)

    def value(p, a=a, k=k, delta=delta):
        return a * np.sin(p @ k + delta)

    def grad(p, a=a, k=k, delta=delta):
        return a * np.cos(p @ k + delta)[..., None] * k

    return InteriorField(value, grad, descriptor={"kind": "random-wave"})
