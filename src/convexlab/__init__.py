"""convexlab: planar convex bodies, log-concave measures, and their inequalities.

A numerical laboratory built around support-function bodies and potentials
u with mu = e^{-u} dx: boundary/interior quadrature, the bilinear forms P,
BL, I and their mean/multiplicative inequalities, the spectral Galerkin
solver for the boundary Euler-Lagrange equation and the concavity power
p(mu, K), Wulff/Legendre flows with validated shape derivatives, and the
spectral and pinching bounds tying everything together.
"""

from . import analysis, errors, flow, forms, geometry, measure, pde, quad, spectral
from .errors import (
    ConfigError,
    ConvexLabError,
    CoercivityFailure,
    FlowNotConvex,
    LebesgueModeRestriction,
    NewtonDivergence,
    NonFiniteIntegral,
    NotConvexPotential,
    NotStrictlyConvex,
    OriginOutside,
    PerturbationTooLarge,
    PinchingUndeclared,
    PinchingViolation,
    ZeroMean,
)
from .forms import (
    BoundaryField,
    FormsReport,
    InteriorField,
    check_mean_form,
    equality_witness,
    form_BL,
    form_I,
    form_P,
    translation_witness,
)
from .geometry import (
    BoundaryPoint,
    SupportFunction2D,
    boundary_point,
    center,
    disk,
    ellipse,
    fourier_body,
    gauge,
    hull_body,
    make_body,
    minkowski_combine,
    steiner_point,
    wulff_perturb,
)
from .measure import (
    ConjugatePerturbation,
    Potential,
    QuadraticPerturbation,
    conjugate,
    conjugate_flow,
    conjugate_potential,
    even_quartic_potential,
    flow_derivatives,
    flow_potential,
    gaussian_potential,
    make_potential,
    quadratic_potential,
    translate_potential,
    weighted_mean_curvature,
    zero_potential,
)
from .pde import (
    PoincareSystem,
    apply_L,
    assemble,
    concavity_power,
    rayleigh,
    solve_report,
    solve_rho_bar,
    support_identity_check,
)
from .quad import boundary_integral, interior_integral
from .flow import (
    FlowConfig,
    marginal_S,
    marginal_value,
    mean_form_from_flow,
    select_epsilon,
    shape_derivatives,
    vector_field_X,
)
from .analysis import (
    BMReport,
    bm_check,
    coercivity_constant,
    coercivity_report,
    interpolation_constant,
    lambda1,
    local_concavity_fd,
    pinching_bounds,
    reformulation_check,
)

__version__ = "0.1.0"
