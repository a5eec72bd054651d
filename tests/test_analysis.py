import dataclasses
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexlab import analysis, forms, geometry, measure, pde, suite
from convexlab.errors import CoercivityFailure, InvalidInput, PinchingUndeclared


def test_lambda1_gaussian_unit_disk_is_infinite(disk1, gaussian):
    lam, lam_res, note = analysis.lambda1(pde.assemble(disk1, gaussian))
    assert np.isinf(lam) and np.isinf(lam_res)
    assert "nonpositive" in note


def test_lambda1_small_disk_closed_form(gaussian):
    # energy/stiffness for cos(k t) on disk(R) is (1 - R^2)/k^2: the best
    # constant is attained at k = 1, so lambda1 = 1/(1 - R^2)
    for R in (0.3, 0.5, 0.8):
        lam, _, _ = analysis.lambda1(pde.assemble(geometry.disk(R), gaussian))
        assert lam == pytest.approx(1.0 / (1.0 - R * R), abs=1e-9)
        assert lam > 1.0


def test_lambda1_refuses_a_stiffness_block_that_is_not_positive_definite(disk1, gaussian):
    import scipy.linalg

    system = pde.assemble(disk1, gaussian, N=8)
    A = system.A.copy()
    A[3, 3] = -1.0  # a negative diagonal entry: the block A[1:, 1:] is indefinite
    with pytest.raises(CoercivityFailure,
                       match="stiffness block lost positive definiteness") as info:
        analysis.lambda1(dataclasses.replace(system, A=A))
    assert isinstance(info.value.__cause__, scipy.linalg.LinAlgError)


def test_lambda1_skips_the_schur_correction_when_constants_carry_no_energy(gaussian):
    # B[0, 0] = m_0^2 / mu(K) makes the constant-direction energy exactly 0, so
    # the non-constant block is used as it is and both answers agree
    system = pde.assemble(geometry.disk(0.5), gaussian, N=8)
    B = system.B.copy()
    B[0, 0] = (np.outer(system.m, system.m) / system.muK)[0, 0]
    lam, lam_res, note = analysis.lambda1(dataclasses.replace(system, B=B))
    assert lam == lam_res < np.inf
    assert note == "constant-direction energy ~ 0; Schur correction skipped"


def test_lambda1_dual_rayleigh_scan(gaussian, peanut, quartic, rng):
    # no random field may beat the computed constant
    for body, u in ((geometry.disk(0.5), gaussian), (peanut, quartic)):
        system = pde.assemble(body, u)
        lam = analysis.lambda1(system)[0]
        E = system.B - np.outer(system.m, system.m) / system.muK
        for _ in range(1000):
            c = analysis.random_coefficients(rng, system.dim)
            energy = c @ E @ c
            stiffness = c @ system.A @ c
            if energy > 1e-12:
                assert stiffness / energy >= lam - 1e-9


def test_coercivity_disk_closed_forms(gaussian):
    # pencil minimum at the k = 1 harmonic: C = R^3/(R^2 + 1)
    for R in (0.5, 1.0, 1.6):
        C = analysis.coercivity_constant(pde.assemble(geometry.disk(R), gaussian))
        assert C == pytest.approx(R**3 / (R * R + 1.0), abs=1e-9)


def test_coercivity_randomized_lower_bound(ellipse21, gaussian, rng):
    system = pde.assemble(ellipse21, gaussian)
    C = analysis.coercivity_constant(system)
    S = system.S
    assert C > 0
    for _ in range(500):
        c = analysis.random_coefficients(rng, system.dim)
        assert c @ system.G @ c >= (C - 1e-9) * (c @ S @ c)


def test_stability_scaling_report(ellipse21, gaussian):
    rep = analysis.coercivity_report(pde.assemble(ellipse21, gaussian))
    assert rep["slope"] == pytest.approx(0.5, abs=1e-12)
    assert rep["bound_holds"]
    assert rep["stability_constant"] == pytest.approx(1 / np.sqrt(rep["C"]), rel=1e-12)


def test_interpolation_constant_closed_form_start(disk1, gaussian):
    # for rho == 1 on the gaussian unit disk the ratio has a closed form
    muBd = 2 * np.pi * np.exp(-0.5)
    muK = 2 * np.pi * (1 - np.exp(-0.5))
    P = muBd**2 / muK
    ratio = muBd / (np.sqrt(P) * np.sqrt(muBd))
    worst = analysis.interpolation_constant(pde.assemble(disk1, gaussian), sample_size=400)
    assert worst >= ratio - 1e-12
    assert np.isfinite(worst)


def test_interpolation_constant_sample_stability(ellipse21, quad14):
    a = analysis.interpolation_constant(pde.assemble(ellipse21, quad14), sample_size=500)
    b = analysis.interpolation_constant(pde.assemble(ellipse21, quad14), sample_size=1000)
    assert b <= 1.2 * a + 1e-12
    assert b >= a - 1e-12  # larger seeded sample extends the smaller scan


def test_interpolation_ratio_scale_invariance(disk1, gaussian):
    # all three quantities are homogeneous (degrees 2 = 1 + 1): delta scaling
    # leaves the ratio unchanged
    system = pde.assemble(disk1, gaussian)
    S = system.S
    E = system.E
    rng = np.random.default_rng(5)
    c = analysis.random_coefficients(rng, system.dim)
    mass = (E * (np.exp(-gaussian.value(disk1.boundary_grid)) * disk1.radius_grid)) @ E.T
    mass *= 2 * np.pi / disk1.M
    def ratio(vec):
        return (vec @ mass @ vec) / (np.sqrt(vec @ system.G @ vec)
                                     * np.sqrt(vec @ S @ vec))
    assert ratio(c) == pytest.approx(ratio(0.01 * c), rel=1e-10)


def test_bm_identical_bodies_zero_slack(disk1, gaussian):
    for p in (0.25, 0.5, 1.0, 2.0):
        rep = analysis.bm_check(disk1, disk1, gaussian, p, t_nodes=9)
        npt.assert_allclose(rep.slacks, 0.0, atol=1e-14)


def test_bm_gaussian_disk_pair(gaussian):
    rep = analysis.bm_check(geometry.disk(0.5), geometry.disk(1.5), gaussian,
                            p=0.5, t_nodes=21)
    assert rep.passed and rep.min_slack >= -1e-9


def test_bm_monotonicity_in_p(ellipse21, gaussian):
    # Hoelder: passing at p implies passing at p/2 on the same data
    other = geometry.ellipse(1.0, 2.0)
    rep1 = analysis.bm_check(ellipse21, other, gaussian, p=0.5, t_nodes=11)
    rep2 = analysis.bm_check(ellipse21, other, gaussian, p=0.25, t_nodes=11)
    assert rep1.passed
    assert rep2.passed


def test_bm_below_local_power_passes(peanut, gaussian):
    p_local = pde.concavity_power(peanut, gaussian)
    rep = analysis.bm_check(peanut, geometry.disk(1.0), gaussian,
                            p=max(p_local - 0.05, 0.05), t_nodes=11)
    assert rep.passed


def test_bm_local_probe_notes(gaussian):
    rep = analysis.bm_check(geometry.disk(0.5), geometry.disk(1.5), gaussian,
                            p=0.9, t_nodes=11, local_probe=True)
    assert rep.local_powers
    # p = 0.9 exceeds the smallest local power along the segment (~0.6), so
    # the advisory note must fire even though the slack may stay positive
    assert min(rep.local_powers.values()) < 0.9
    assert "local_global" in rep.notes


def test_local_concavity_fd_disk_radial_oracle(disk1, gaussian):
    # f == c: mu((1+tc)K)^p has the 1-D closed form derivative
    c, p = 0.7, 0.8
    f = forms.BoundaryField.constant(c, disk1.M)
    val = analysis.local_concavity_fd(disk1, gaussian, f, p)
    def g(t):
        R = 1.0 + t * c
        return (2 * np.pi * (1 - np.exp(-R * R / 2))) ** p
    h = 1e-3
    oracle = (g(h) - 2 * g(0) + g(-h)) / h**2
    assert val == pytest.approx(oracle, rel=1e-6)


def test_local_concavity_sign_resolution(disk05, gaussian):
    p_star = pde.concavity_power(disk05, gaussian)
    f = pde.solve_report(disk05, gaussian)["rho_bar"]
    assert analysis.local_concavity_fd(disk05, gaussian, f, p_star - 1e-4) <= 1e-7
    assert analysis.local_concavity_fd(disk05, gaussian, f, p_star + 1e-2) > 0


def test_local_concavity_log_mode(disk1, gaussian):
    # p = 0 checks plain log-concavity of the marginal
    f = forms.BoundaryField.from_function(lambda t: np.cos(2 * t), disk1.M)
    assert analysis.local_concavity_fd(disk1, gaussian, f, 0.0) <= 1e-7


def test_reformulation_disk_and_ellipse(disk1, ellipse21, gaussian):
    rep = analysis.reformulation_check(disk1, gaussian)
    assert rep["passed"]
    assert rep["identity_residual"] <= 1e-9 * rep["identity_scale"]
    assert rep["p"] == pytest.approx(1.0, abs=1e-9)
    rep = analysis.reformulation_check(ellipse21, gaussian)
    assert rep["passed"]


def test_reformulation_radius_scan(gaussian):
    for R in (0.25, 0.5, 1.0, 2.0, 3.0):
        rep = analysis.reformulation_check(geometry.disk(R), gaussian)
        assert rep["passed"], R


def test_reformulation_sign_test_has_a_dead_zone_at_one_half(monkeypatch, disk1, gaussian):
    # on the unit gaussian disk the quantity is 2.47 > 0: a p just below 1/2
    # disagrees with its sign, while p = 1/2 itself sits in the dead zone
    for p, consistent in ((0.5, True), (0.5 - 1e-6, False)):
        monkeypatch.setattr(analysis, "_power", lambda system, mc, p=p: p)
        rep = analysis.reformulation_check(disk1, gaussian)
        assert rep["quantity"] > 0 and rep["p"] == p
        assert rep["sign_consistent"] is consistent
        assert rep["passed"] is consistent


def test_reformulation_requires_symmetry(blob, disk1, gaussian):
    with pytest.raises(ValueError):
        analysis.reformulation_check(blob, gaussian)
    # a translated gaussian is no longer even, on a body that still is
    shifted = measure.translate_potential(gaussian, [0.1, 0.0])
    with pytest.raises(ValueError, match="^reformulation check requires an even potential$"):
        analysis.reformulation_check(disk1, shifted)


def test_pinching_bounds_disk_gaussian(disk1, gaussian):
    rep = analysis.pinching_bounds(disk1, gaussian)
    assert rep["passed"]
    assert rep["r"] == 1.0
    assert rep["p"] == pytest.approx(1.0, abs=1e-9)
    # moment = E[|x|^2] under the restricted gaussian, below n*k2/k1 = 2
    muK = 2 * np.pi * (1 - np.exp(-0.5))
    moment_oracle = 2 * np.pi * (2 - 3 * np.exp(-0.5)) / muK
    assert rep["moment"] == pytest.approx(moment_oracle, rel=1e-10)
    assert rep["power_floor"] == 0.25


def test_pinching_bounds_quadratic_ratio_four(ellipse21, quad14):
    rep = analysis.pinching_bounds(ellipse21, quad14)
    assert rep["passed"]
    assert rep["r"] == 4.0
    assert rep["power_floor"] == pytest.approx(0.1)
    assert rep["p"] >= 0.1
    # affine image of disk(2)+gaussian: the power matches that closed form
    oracle = 1.0 - (0.5 - 2.0) * (np.exp(2.0) - 1.0) / 2.0
    assert rep["p"] == pytest.approx(oracle, rel=1e-9)


def test_pinching_scan_inverse_power_bound(gaussian):
    for R in (0.5, 1.0, 2.0):
        rep = analysis.pinching_bounds(geometry.disk(R), gaussian)
        assert 1.0 / rep["p"] <= 2.0 + rep["moment"] + 1e-9


def test_pinching_requires_declaration(disk1, quartic):
    with pytest.raises(PinchingUndeclared):
        analysis.pinching_bounds(disk1, quartic)


def test_pinching_bounds_refuse_what_is_not_symmetric(disk1, gaussian):
    body = geometry.fourier_body(1.0, cos={2: 0.15}, sin={3: 0.05})
    assert not body.is_even
    with pytest.raises(ValueError, match="^pinching bounds require an origin-symmetric body$"):
        analysis.pinching_bounds(body, gaussian)
    shifted = measure.translate_potential(gaussian, [0.1, 0.0])
    with pytest.raises(ValueError, match="^pinching bounds require an even potential$"):
        analysis.pinching_bounds(disk1, shifted)


# -- the batched interpolation-constant scan against the per-draw loop --------


def _reference_random_coefficients(rng, dim):
    c = rng.standard_normal(dim)
    for k in range(1, (dim - 1) // 2 + 1):
        w = 1.0 / (1.0 + float(k) ** 2.0)
        c[2 * k - 1] *= w
        if 2 * k < dim:
            c[2 * k] *= w
    return c


def _reference_interpolation_constant(system, sample_size=1000, seed=11):
    sizes = [int(n) for n in np.atleast_1d(sample_size)]
    rng = np.random.default_rng(seed)
    constant = np.zeros(system.dim)
    constant[0] = 1.0
    worst, prefix = 0.0, []
    for i in range(max(sizes) + 1):
        c = constant if i == 0 else _reference_random_coefficients(rng, system.dim)
        l2sq = c @ system.mass @ c
        P = c @ system.G @ c
        h1 = np.sqrt(c @ system.S @ c)
        if P > 0 and h1 != 0:
            worst = max(worst, l2sq / (np.sqrt(P) * h1))
        prefix.append(float(worst))
    sups = tuple(prefix[n] for n in sizes)
    return sups if np.ndim(sample_size) else sups[0]


_BODIES = suite.standard_bodies()
_POTENTIALS = {k: v for k, v in suite.standard_potentials().items() if k != "zero"}
_SYSTEMS = {}


def _system(body, pot, N, even_only):
    key = (body, pot, N, even_only)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = pde.assemble(_BODIES[body], _POTENTIALS[pot], N=N,
                                     even_only=even_only)
    return _SYSTEMS[key]


def _hex(sups):
    return [float(s).hex() for s in np.atleast_1d(sups)]


@settings(max_examples=60, deadline=None)
@given(body=st.sampled_from(sorted(_BODIES)), pot=st.sampled_from(sorted(_POTENTIALS)),
       N=st.integers(4, 44), even_only=st.booleans(), seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(0, 300), min_size=1, max_size=5),
       as_tuple=st.booleans(), block=st.sampled_from([1, 2, 3, 7, 64, 4096]))
def test_interpolation_constant_matches_per_draw_loop_bytes(body, pot, N, even_only, seed,
                                                            sizes, as_tuple, block):
    # unsorted and repeated sizes, 0 and 1, and scans that cross block bounds
    system = _system(body, pot, N, even_only)
    sample_size = tuple(sizes) if as_tuple or len(sizes) > 1 else sizes[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_SCAN_BLOCK", block)
        got = analysis.interpolation_constant(system, sample_size, seed=seed)
    want = _reference_interpolation_constant(system, sample_size, seed=seed)
    assert type(got) is type(want)
    assert _hex(got) == _hex(want)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from(["indefinite", "zero G", "zero S", "nan G", "inf mass",
                                "nan S"]),
       sizes=st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_interpolation_constant_skips_draws_like_per_draw_loop(dim, seed, special, sizes):
    # skipped draws (P <= 0, h1 == 0, NaN) stay neutral in the running sup
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3, dim, dim))
    mass, S = X[0] @ X[0].T, X[1] @ X[1].T
    G = X[2] + X[2].T if special == "indefinite" else X[2] @ X[2].T
    if special == "zero G":
        G = np.zeros((dim, dim))
    elif special == "zero S":
        S = np.zeros((dim, dim))
    elif special == "nan G":
        G[0, -1] = G[-1, 0] = np.nan
    elif special == "inf mass":
        mass[-1, -1] = np.inf
    elif special == "nan S":
        S[-1, -1] = np.nan
    system = SimpleNamespace(dim=dim, mass=mass, G=G, S=S)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(analysis, "_SCAN_BLOCK", 3)
        got = analysis.interpolation_constant(system, tuple(sizes), seed=seed)
        want = _reference_interpolation_constant(system, tuple(sizes), seed=seed)
    assert _hex(got) == _hex(want)


def test_interpolation_constant_matches_per_draw_loop_past_one_block():
    system = _system("peanut", "quartic", 44, False)
    sizes = (analysis._SCAN_BLOCK + 1, 7, 2 * analysis._SCAN_BLOCK + 3, 0, 1)
    assert (_hex(analysis.interpolation_constant(system, sizes, seed=5))
            == _hex(_reference_interpolation_constant(system, sizes, seed=5)))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(0, 95), seed=st.integers(0, 2**32 - 1))
def test_random_coefficients_matches_per_pair_loop_bytes(dim, seed):
    got = analysis.random_coefficients(np.random.default_rng(seed), dim)
    want = _reference_random_coefficients(np.random.default_rng(seed), dim)
    assert got.tobytes() == want.tobytes()


def test_interpolation_constant_draws_in_blocks(monkeypatch):
    # at most ceil(n / block) normal draws and no per-field random_coefficients
    system = _system("ellipse21", "gaussian", 16, False)
    calls, fields = [], []
    default_rng = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, *args, **kwargs):
            calls.append(args)
            return self.rng.standard_normal(*args, **kwargs)

    def no_fields(*args, **kwargs):
        fields.append(args)
        return _reference_random_coefficients(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Counted)
    monkeypatch.setattr(analysis, "random_coefficients", no_fields)
    monkeypatch.setattr(analysis, "_SCAN_BLOCK", 100)
    sups = analysis.interpolation_constant(system, (250, 120, 0), seed=9)
    assert not fields
    assert len(calls) <= 3
    assert sum(np.prod(shape) for shape, in calls) == 250 * system.dim
    monkeypatch.undo()
    assert _hex(sups) == _hex(_reference_interpolation_constant(system, (250, 120, 0), seed=9))


def test_argument_checks_raise_before_any_work(disk1, gaussian, monkeypatch):
    system = pde.assemble(disk1, gaussian, N=4)
    monkeypatch.setattr(analysis.np.random, "default_rng", lambda seed: pytest.fail("drew"))
    with pytest.raises(InvalidInput, match="^sample_size must name at least one size$") as info:
        analysis.interpolation_constant(system, sample_size=[])
    assert type(info.value) is InvalidInput  # InvalidInput is itself a ValueError
    monkeypatch.undo()
    with pytest.raises(ValueError, match="^sample_size must be >= 0$"):
        analysis.interpolation_constant(system, sample_size=-1)
    with pytest.raises(ValueError, match="^sample_size must be >= 0$"):
        analysis.interpolation_constant(system, sample_size=[10, -1])
    with pytest.raises(ValueError, match="^p must be finite and positive, got 0$"):
        analysis.bm_check(disk1, geometry.disk(1.5), gaussian, p=0)
    f = forms.BoundaryField.from_function(lambda t: np.cos(2 * t), disk1.M)
    with pytest.raises(ValueError, match="^p must be finite and nonnegative, got -1$"):
        analysis.local_concavity_fd(disk1, gaussian, f, -1)


def test_reformulation_check_evaluates_the_moment_field_once_per_point_set(monkeypatch):
    # the interaction form and the moment integral read one evaluation at the nodes
    body, u = geometry.ellipse(2.0, 1.0), measure.gaussian_potential()
    calls = []

    def logged(u, fresh=analysis.radial_moment_field):
        moment = fresh(u)
        return forms.InteriorField(lambda p: calls.append(p.shape) or moment.value(p))

    monkeypatch.setattr(analysis, "radial_moment_field", logged)
    rep = analysis.reformulation_check(body, u, N=8, Q=16)
    assert calls == [(body.M, 2), (16 * body.M, 2)]
    monkeypatch.undo()
    assert rep == analysis.reformulation_check(geometry.ellipse(2.0, 1.0), u, N=8, Q=16)
