"""convexlab: planar convex bodies, log-concave measures, and their inequalities.

A numerical laboratory built around support-function bodies and potentials
u with mu = e^{-u} dx: boundary/interior quadrature, the bilinear forms P,
BL, I and their mean/multiplicative inequalities, the spectral Galerkin
solver for the boundary Euler-Lagrange equation and the concavity power
p(mu, K), Wulff/Legendre flows with validated shape derivatives, and the
spectral and pinching bounds tying everything together.
"""

from . import analysis, errors, flow, forms, geometry, measure, pde, quad, spectral

# the package surface: the union of the modules' __all__ and the errors' classes
from .errors import *
from .forms import *
from .geometry import *
from .measure import *
from .pde import *
from .quad import *
from .flow import *
from .analysis import *

__version__ = "0.1.0"
