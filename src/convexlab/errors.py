"""Exception hierarchy: every error raised on purpose is a ``ConvexLabError``.

Bad input (a radius <= 0, p <= 0, a body that is not origin-symmetric where one
is required) raises ``InvalidInput``, also a ``ValueError``: the CLI's exit 2.
A numerical failure raises another subclass: exit 3.  A plain ``ValueError``
marks an internal contract break (an integrand of the wrong shape), a bug.
"""


def _check_descriptor(what, kind, desc, reads):
    """InvalidInput unless kind is a key of reads and reads[kind] names every key of desc."""
    if kind not in reads:
        raise InvalidInput(f"unknown {what} kind {kind!r}; expected one of {', '.join(reads)}")
    stray = sorted(set(desc) - set(reads[kind]))
    if stray:
        raise InvalidInput(f"keys {stray} do not apply to {what} kind {kind!r}")


class ConvexLabError(Exception):
    """Base class for all library-specific errors."""


class InvalidInput(ConvexLabError, ValueError):
    """An argument the library rejects as outside its domain."""


class NotStrictlyConvex(ConvexLabError):
    """Radius of curvature h + h'' is not strictly positive somewhere."""

    def __init__(self, theta, value, message=None):
        self.theta = float(theta)
        self.value = float(value)
        if message is None:
            message = (
                f"h + h'' = {value:.6g} at theta = {theta:.6g}; "
                "the body is not strictly convex"
            )
        super().__init__(message)


class OriginOutside(ConvexLabError):
    """Support function is non-positive somewhere; origin is not interior."""


class PerturbationTooLarge(ConvexLabError):
    """A Wulff perturbation h + t*f lost strict convexity."""


class NotConvexPotential(ConvexLabError):
    """Hessian of the potential fails to be symmetric positive definite."""


class LebesgueModeRestriction(InvalidInput):
    """A strictly convex operation asked of the zero potential (Lebesgue mode): bad input."""


class NewtonDivergence(ConvexLabError):
    """A damped Newton iteration failed to converge within its cap."""


class FlowNotConvex(ConvexLabError):
    """The dual perturbation u* + t*psi lost strict convexity."""


class CoercivityFailure(ConvexLabError):
    """Gram matrix of the boundary form is not positive definite.

    This would falsify the coercivity of the form at desk scale and is
    treated as a loud failure, never a numerical fallback.
    """


class ZeroMean(ConvexLabError):
    """Rayleigh quotient requested for a field with vanishing mean."""


class PinchingUndeclared(InvalidInput):
    """A pinched-Hessian bound was requested without declared constants."""


class PinchingViolation(InvalidInput):
    """Declared Hessian pinching fails at a quadrature node: the declaration is bad input."""


class NonFiniteIntegral(ConvexLabError):
    """A quadrature result, or p formed from two, is NaN or infinite (e.g. a NaN-valued
    potential, or p = mu(K) / int rho_bar dmu overflowing on a large gaussian disk)."""


class ConfigError(InvalidInput):
    """Invalid experiment configuration."""
