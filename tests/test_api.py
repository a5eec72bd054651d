"""The package surface is the union of the layer modules' ``__all__``.

``convexlab/__init__.py`` republishes each layer module by a wildcard import,
so a name is public at the top level exactly when its module declares it.
``errors`` declares no ``__all__`` and exports its exception classes.
"""

import inspect
import types

import pytest

import convexlab
from convexlab import analysis, errors, flow, forms, geometry, measure, pde, quad

LAYERS = (forms, geometry, measure, pde, quad, flow, analysis)

# the top-level names of the package before its surface was derived from the
# modules' __all__: none of them may go.  flow_derivatives, whose only callers
# were tests, went to tests/test_measure.py as a helper
KEPT = """
apply_L assemble bm_check BMReport boundary_integral boundary_point BoundaryField
BoundaryPoint center check_mean_form coercivity_constant coercivity_report
CoercivityFailure concavity_power ConfigError conjugate conjugate_flow
conjugate_potential ConjugatePerturbation ConvexLabError disk ellipse equality_witness
even_quartic_potential flow_potential FlowConfig FlowNotConvex form_BL
form_I form_P FormsReport fourier_body gauge gaussian_potential hull_body
interior_integral InteriorField interpolation_constant InvalidInput lambda1
LebesgueModeRestriction local_concavity_fd make_body make_potential marginal_S
marginal_value mean_form_from_flow minkowski_combine NewtonDivergence NonFiniteIntegral
NotConvexPotential NotStrictlyConvex OriginOutside PerturbationTooLarge pinching_bounds
PinchingUndeclared PinchingViolation PoincareSystem Potential quadratic_potential
QuadraticPerturbation rayleigh reformulation_check select_epsilon shape_derivatives
solve_report solve_rho_bar steiner_point support_identity_check SupportFunction2D
translate_potential translation_witness vector_field_X weighted_mean_curvature
wulff_perturb zero_potential ZeroMean
""".split()


def _error_classes():
    return {name: obj for name, obj in vars(errors).items()
            if inspect.isclass(obj) and not name.startswith("_")}


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_each_declared_name_is_the_same_object_on_the_package(module):
    for name in module.__all__:
        assert getattr(convexlab, name) is getattr(module, name), name


def test_the_surface_is_the_declared_names_and_keeps_every_earlier_name():
    for name, cls in _error_classes().items():
        assert getattr(convexlab, name) is cls, name
    declared = set(_error_classes()).union(*(module.__all__ for module in LAYERS))
    public = {name for name, obj in vars(convexlab).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == declared
    assert len(KEPT) == 77 and not set(KEPT) - public
