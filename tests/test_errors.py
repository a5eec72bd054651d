import numpy as np
import pytest

from convexlab import acceptance, analysis, flow, forms, geometry, measure, pde, quad, spectral
from convexlab.errors import ConvexLabError, InvalidInput, NotConvexPotential

DISK = geometry.disk(1.0)
BLOB = geometry.fourier_body(1.0, cos={2: 0.15}, sin={3: 0.05})
GAUSSIAN = measure.gaussian_potential()
SHIFTED = measure.translate_potential(GAUSSIAN, [0.3, 0.0])  # keeps (1, 1), not even
ZERO, SMALL_DISK = measure.zero_potential(), geometry.disk(1.0, M=64)
PHI = forms.InteriorField.coordinate(0)
X = np.array([[0.2, 0.1], [0.3, -0.4]])


@pytest.mark.parametrize("call, says", [
    (lambda: analysis.interpolation_constant(
        pde.assemble(geometry.disk(1.0, M=64), GAUSSIAN, N=4, Q=16), sample_size=-1),
     "sample_size must be >= 0"),
    (lambda: analysis.bm_check(DISK, DISK, GAUSSIAN, 0), "p must be finite and positive, got 0"),
    (lambda: analysis.local_concavity_fd(DISK, GAUSSIAN, forms.BoundaryField(DISK.values), -1),
     "p must be finite and nonnegative, got -1"),
    (lambda: analysis.reformulation_check(BLOB, GAUSSIAN),
     "reformulation check requires an origin-symmetric body"),
    (lambda: analysis.reformulation_check(DISK, SHIFTED),
     "reformulation check requires an even potential"),
    (lambda: analysis.pinching_bounds(DISK, measure.zero_potential()),
     "pinching bounds need declared constants k1 <= k2 on the potential"),
    (lambda: analysis.pinching_bounds(BLOB, GAUSSIAN),
     "pinching bounds require an origin-symmetric body"),
    (lambda: analysis.pinching_bounds(DISK, SHIFTED), "pinching bounds require an even potential"),
    (lambda: geometry.SupportFunction2D(np.ones(62)),
     "support function needs an even grid of >= 64 samples"),
    (lambda: geometry.SupportFunction2D(np.r_[np.ones(63), np.nan]),
     "support function samples must be finite"),
    (lambda: geometry.disk(-1), "disk radius must be positive"),
    (lambda: geometry.ellipse(0, 1), "ellipse semi-axes must be positive"),
    (lambda: geometry.hull_body([[0.0, 0.0], [1.0, 0.0]]), "hull_body needs at least 3 points"),
    (lambda: geometry.minkowski_combine(DISK, DISK, 2), "t must lie in [0, 1]"),
    (lambda: geometry.gauge(DISK, [np.nan, 0.0]), "gauge of a non-finite point"),
    (lambda: measure.make_potential({"kind": "gaussian", "pinching": (2.0, 1.0)}),
     "pinching needs both constants with 0 < k1 <= k2, got (2.0, 1.0)"),
    (lambda: measure.make_potential({"kind": "quadratic"}),
     "a quadratic potential needs its matrix A"),
    (lambda: measure.make_potential({"kind": "zero", "pinching": (0.5, 8)}),
     "the zero potential's Hessian 0 is below any declared k1 > 0"),
    (lambda: measure.verify_pinching(
        measure.make_potential({"kind": "even-quartic", "eps": 0.0, "pinching": (1.5, 2.0)}),
        np.zeros((1, 2))),
     "min Hessian eigenvalue 1 < declared k1 = 1.5"),
    (lambda: measure.QuadraticPerturbation([[1.0, 2.0], [0.0, 1.0]]),
     "quadratic perturbation needs a symmetric matrix"),
    (lambda: measure.ConjugatePerturbation(GAUSSIAN, -1), "alpha must be finite and >= 0, got -1"),
    (lambda: flow.FlowConfig(f=None, n_t=2), "n_t must be an integer >= 3, got 2"),
    (lambda: flow.FlowConfig(f=None, eps=-1), "eps must be finite and > 0, got -1"),
    (lambda: forms.BoundaryField(np.ones((2, 64))), "boundary field must be a 1-D sample array"),
    (lambda: forms.BoundaryField([1.0, np.inf]), "boundary field samples must be finite"),
    (lambda: pde.assemble(DISK, GAUSSIAN, N=3), "basis order N must be >= 4"),
    (lambda: pde.assemble(DISK, GAUSSIAN, N=200),
     "basis order N = 200 needs 2N < M = 256: the grid cannot tell the top harmonics apart"),
    (lambda: geometry.make_body({"kind": "triangle"}),
     "unknown body kind 'triangle'; expected one of disk, ellipse, fourier"),
    (lambda: geometry.make_body({"kind": "disk", "a": 2.0}),
     "keys ['a'] do not apply to body kind 'disk'"),
    (lambda: geometry.fourier_body(1.0, cos={2.5: 0.1}),
     "fourier harmonic K must be an integer >= 1, got 2.5"),
    (lambda: geometry.fourier_body(1.0, cos={True: 0.1}),
     "fourier harmonic K must be an integer >= 1, got True"),
    (lambda: geometry.fourier_body(1.0, cos={"x": 0.1}),
     "fourier harmonic K must be an integer >= 1, got 'x'"),
    (lambda: geometry.fourier_body(1.0, sin={0: 0.3}),
     "fourier harmonic K must be an integer >= 1, got 0"),
    (lambda: forms.form_BL(DISK, ZERO, PHI, PHI),
     "the interior variance form requires a strictly convex potential; u == 0 is only "
     "admitted for the boundary forms P and I and the operator L"),
    (lambda: analysis.coercivity_constant(pde.assemble(SMALL_DISK, ZERO, N=4, Q=16)),
     "the coercivity constant requires a strictly convex potential; u == 0 is only "
     "admitted for the boundary forms P and I and the operator L"),
    (lambda: pde.solve_rho_bar(pde.assemble(SMALL_DISK, ZERO, N=4, Q=16)),
     "the Euler-Lagrange solve needs a strictly convex potential; "
     "for u == 0 the form has translation null directions"),
    # non-finite parameters, refused where they enter instead of giving NaN downstream
    (lambda: measure.conjugate_flow(GAUSSIAN, measure.QuadraticPerturbation(b=[np.nan, 0.0]),
                                    0.1, X),
     "quadratic perturbation needs a finite b"),
    (lambda: measure.conjugate_flow(GAUSSIAN, measure.QuadraticPerturbation(c=np.nan), 0.1, X),
     "quadratic perturbation needs a finite c"),
    (lambda: measure.flow_potential(GAUSSIAN, measure.QuadraticPerturbation(c=np.nan), 0.1),
     "quadratic perturbation needs a finite c"),
    (lambda: measure.QuadraticPerturbation(B=[[np.inf, 0.0], [0.0, 0.0]]),
     "quadratic perturbation needs a finite B"),
    (lambda: measure.ConjugatePerturbation(GAUSSIAN, np.nan),
     "alpha must be finite and >= 0, got nan"),
    (lambda: measure.ConjugatePerturbation(GAUSSIAN, np.inf),
     "alpha must be finite and >= 0, got inf"),
    (lambda: measure.translate_potential(GAUSSIAN, [np.nan, 0.0]),
     "translate_potential needs a finite v, got [nan, 0.0]"),
    (lambda: measure.shift_potential(GAUSSIAN, np.nan),
     "shift_potential needs a finite const, got nan"),
    (lambda: analysis.bm_check(DISK, DISK, GAUSSIAN, np.nan),
     "p must be finite and positive, got nan"),
    (lambda: analysis.local_concavity_fd(DISK, GAUSSIAN, forms.BoundaryField(DISK.values), np.nan),
     "p must be finite and nonnegative, got nan"),
    (lambda: measure.quadratic_potential([[np.inf, 0.0], [0.0, 1.0]]),
     "quadratic potential needs a finite A, got [[inf, 0.0], [0.0, 1.0]]"),
    # a count that range() or int() would take in silently or turn into a bare ValueError
    (lambda: geometry.gauge_angle(DISK, [0.3, 0.1], newton_steps=-1),
     "newton_steps must be an integer >= 0, got -1"),
    (lambda: analysis.bm_check(DISK, DISK, GAUSSIAN, 0.5, Q=0),
     "quadrature order Q must be an integer >= 1, got 0"),
    (lambda: analysis.bm_check(DISK, DISK, GAUSSIAN, 0.5, Q=2.5),
     "quadrature order Q must be an integer >= 1, got 2.5"),
    (lambda: analysis.interpolation_constant(
        pde.assemble(geometry.disk(1.0, M=64), GAUSSIAN, N=4, Q=16), sample_size=np.nan),
     "sample_size must be an integer, got nan"),
    (lambda: analysis.interpolation_constant(
        pde.assemble(geometry.disk(1.0, M=64), GAUSSIAN, N=4, Q=16), sample_size=2.5),
     "sample_size must be an integer, got 2.5"),
    (lambda: analysis.bm_check(DISK, DISK, GAUSSIAN, 0.5, t_nodes=0),
     "t_nodes must be an integer >= 1 or a non-empty sequence of t, got 0"),
    (lambda: analysis.bm_check(DISK, DISK, GAUSSIAN, 0.5, t_nodes=-1),
     "t_nodes must be an integer >= 1 or a non-empty sequence of t, got -1"),
    (lambda: analysis.bm_check(DISK, DISK, GAUSSIAN, 0.5, t_nodes=2.5),
     "t_nodes must be an integer >= 1 or a non-empty sequence of t, got 2.5"),
    (lambda: analysis.bm_check(DISK, DISK, GAUSSIAN, 0.5, t_nodes=[]),
     "t_nodes must be an integer >= 1 or a non-empty sequence of t, got []"),
    (lambda: analysis.bm_check(DISK, DISK, GAUSSIAN, 0.5, t_nodes=np.array(5)),
     "t_nodes must be an integer >= 1 or a non-empty sequence of t, got array(5)"),
    (lambda: pde.assemble(DISK, GAUSSIAN, N=4.5), "basis order N must be an integer, got 4.5"),
    (lambda: pde.assemble(DISK, GAUSSIAN, N=16.0), "basis order N must be an integer, got 16.0"),
    (lambda: pde.assemble(DISK, GAUSSIAN, N=np.nan), "basis order N must be an integer, got nan"),
    # derivative samples and interpolant arguments that gave NaN or a bare numpy error
    (lambda: forms.BoundaryField(np.ones(64), np.ones(3)),
     "boundary field derivative samples must match its values"),
    (lambda: forms.BoundaryField(np.ones(64), np.r_[np.zeros(63), np.nan]),
     "boundary field derivative samples must be finite"),
    (lambda: geometry.boundary_point(geometry.ellipse(2.0, 1.0), np.nan),
     "the interpolant needs finite angles"),
    (lambda: DISK.eval(np.inf), "the interpolant needs finite angles"),
    (lambda: spectral.evaluate(spectral.coefficients(np.ones(8)), 8, [0.0, -np.inf]),
     "the interpolant needs finite angles"),
    (lambda: forms.BoundaryField(DISK.values).deriv(-1),
     "derivative order must be an integer >= 0, got -1"),
    (lambda: forms.BoundaryField(DISK.values).eval(0.3, -1),
     "derivative order must be an integer >= 0, got -1"),
    (lambda: forms.BoundaryField(DISK.values).deriv(1.5),
     "derivative order must be an integer >= 0, got 1.5"),
    # pair counts that passed over nothing, ran one pair or ended in a bare TypeError
    (lambda: acceptance.random_pairs_check(DISK, GAUSSIAN, 0, 0, 8),
     "pairs must be an integer >= 1, got 0"),
    (lambda: acceptance.random_pairs_check(DISK, GAUSSIAN, -3, 0, 8),
     "pairs must be an integer >= 1, got -3"),
    (lambda: acceptance.random_pairs_check(DISK, GAUSSIAN, 2.5, 0, 8),
     "pairs must be an integer >= 1, got 2.5"),
    (lambda: acceptance.random_pairs_check(DISK, GAUSSIAN, True, 0, 8),
     "pairs must be an integer >= 1, got True"),
], ids=["sample-size", "bm-p", "fd-p", "reformulation-body", "reformulation-potential",
        "pinching-undeclared", "pinching-body", "pinching-potential", "support-grid",
        "support-finite", "disk-radius", "ellipse-axes", "hull-points", "minkowski-t",
        "gauge-nan", "pinching-constants", "quadratic-without-A", "zero-pinching",
        "pinching-broken", "asymmetric-B", "negative-alpha", "flow-n_t", "flow-eps", "field-1-d",
        "field-finite", "N-below-4", "N-above-grid", "unknown-kind", "stray-key", "fourier-K-fraction",
        "fourier-K-bool", "fourier-K-word", "fourier-sin0",
        "lebesgue-form", "lebesgue-coercivity", "lebesgue-solve", "flow-b-nan", "flow-c-nan",
        "flow-potential-c-nan", "psi-B-inf", "alpha-nan", "alpha-inf", "translate-nan",
        "shift-nan", "bm-p-nan", "fd-p-nan", "quadratic-A-inf", "gauge-newton-negative",
        "Q-zero", "Q-fraction", "sample-size-nan", "sample-size-fraction", "bm-nodes-zero",
        "bm-nodes-negative", "bm-nodes-fraction", "bm-nodes-empty", "bm-nodes-0-d", "N-fraction", "N-float",
        "N-nan", "field-d-shape", "field-d-finite", "boundary-point-nan", "eval-inf",
        "evaluate-minus-inf", "deriv-negative", "eval-order-negative", "deriv-fraction",
        "pairs-zero", "pairs-negative", "pairs-fraction", "pairs-bool"])
def test_bad_input_is_invalid_input_and_value_error(call, says):
    # the CLI maps InvalidInput to exit 2; callers catching ValueError still work
    with pytest.raises(InvalidInput) as info:
        call()
    assert isinstance(info.value, ValueError) and isinstance(info.value, ConvexLabError)
    assert str(info.value) == says


@pytest.mark.parametrize("call, says", [
    (lambda: forms.form_P(DISK, GAUSSIAN, DISK.values, DISK.values),
     "expected a BoundaryField, got ndarray"),
    (lambda: quad.boundary_integral(DISK, GAUSSIAN, np.ones(128)),
     "boundary integrand does not match the body grid"),
    (lambda: geometry.gauge(DISK, np.ones(3)), "gauge needs points of shape (..., 2)"),
    (lambda: measure.verify_pinching(GAUSSIAN, np.zeros((4, 3))),
     "points must have shape (..., 2), got (4, 3)"),
    (lambda: measure.gradient_consistency(GAUSSIAN, np.zeros((4, 3))),
     "points must have shape (..., 2), got (4, 3)"),
    (lambda: GAUSSIAN.value(np.zeros((2, 3))), "points must have shape (..., 2), got (2, 3)"),
    (lambda: measure.conjugate_flow(GAUSSIAN, None, 0.0, np.zeros(2), method="exact"),
     "unknown flow method 'exact': expected 'auto', 'newton' or 'closed'"),
], ids=["forms-raw-array", "quad-grid", "gauge-shape", "pinching-shape", "consistency-shape",
        "value-shape", "flow-method"])
def test_contract_break_stays_a_plain_value_error(call, says):
    # a caller's bug, not bad input: the CLI lets it leave as a traceback
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == says


@pytest.mark.parametrize("call, error, says", [
    (lambda: measure.quadratic_potential([[2.0, 0.6 + 1e-6], [0.6, 1.0]]), NotConvexPotential,
     "quadratic potential needs a symmetric matrix"),
    (lambda: measure.QuadraticPerturbation(B=[[0.3, 0.1 + 1e-6], [0.1, 0.2]]), InvalidInput,
     "quadratic perturbation needs a symmetric matrix"),
], ids=["quadratic-A-asymmetric-1e-6", "psi-B-asymmetric-1e-6"])
def test_a_matrix_asymmetric_beyond_1e_12_is_refused(call, error, says):
    # np.allclose's default rtol of 1e-5 would let these through: atol 1e-12 is the bound
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == says
