"""Hand mutants: each check of the acceptance suite can go red.

Each row patches one name where the library looks it up, with a wrapper that
perturbs its result slightly, and runs only the criteria that must then fail.
A suite that stayed green under such a mutant would not be checking that
quantity.  Every criterion is accounted for: a row's red criterion, a knowingly
red one, or the exempt slow one (see ``EXEMPT``).
"""

from dataclasses import replace

import numpy as np
import pytest

from convexlab import acceptance, analysis, flow, forms, geometry, pde, quad


def _scaled(factor):
    """Wrap a function so that its result is multiplied by ``factor``."""
    return lambda fn: lambda *args, **kwargs: fn(*args, **kwargs) * factor


def _scaled_weights(build):
    def mutant(body, Q):
        pts, weights = build(body, Q)
        return pts, weights * (1 + 1e-6)
    return mutant


def _scaled_report_BL(check):
    """A forms report whose BL is scaled by 1 + 1e-3, the slacks left as they were."""
    def mutant(*args, **kwargs):
        rep = check(*args, **kwargs)
        return replace(rep, BL=rep.BL * (1 + 1e-3))
    return mutant


def _shrunk_combination(combine):
    """Minkowski combinations shrunk by 1e-6: the segment's ends leave K and L."""
    def mutant(bodyK, bodyL, t):
        body = combine(bodyK, bodyL, t)
        return geometry.SupportFunction2D(body.values * (1 - 1e-6), body.descriptor,
                                          validate=False)
    return mutant


def _convex_marginal(value):
    """I(t) e^{t^2}: at most 1.0064 on the criteria's |t| <= 0.08, and 2 more in S''."""
    def mutant(body, u, f, psi, t, Q):
        return value(body, u, f, psi, t, Q) * np.exp(t * t)
    return mutant


def _finer_rule_scaled(rule):
    """Radial weights scaled by 1 + 1e-6 only above the criteria's Q: criterion 11's fine run."""
    def mutant(Q):
        s, sw = rule(Q)
        return (s, sw * (1 + 1e-6)) if Q > acceptance.Q else (s, sw)
    return mutant


MUTANTS = {
    # (module, name looked up there, wrapper, criteria that must go red)
    "interior-weights": (quad, "_build_nodes", _scaled_weights,
                         ("1", "2", "3", "4c", "5b", "5c-control", "8")),
    "mean-curvature": (quad, "weighted_mean_curvature", _scaled(1 + 1e-4),
                       ("2", "4c", "5c-control", "6", "8")),
    # H_mu as pde reads it scales assemble's B (and the strong form's H_mu term)
    "galerkin-B": (pde, "_hmu", _scaled(1 + 1e-6), ("2", "6", "8")),
    # the flow's cross-module oracle reads BL through forms.check_mean_form
    "form-BL": (forms, "form_BL", _scaled(1 + 1e-3), ("4c", "5d")),
    # the BL that the flow's oracle takes from the report, where flow binds check_mean_form
    "flow-form-BL": (flow, "check_mean_form", _scaled_report_BL, ("5d",)),
    # the marginal as marginal_S and select_epsilon look it up; 5b reads acceptance's own
    # binding of marginal_value, so the patch does not reach it
    "flow-marginal": (flow, "marginal_value", _convex_marginal, ("5a",)),
    "even-only-power": (acceptance, "concavity_power", _scaled(1 + 1e-6), ("7",)),
    # criterion 9's moments are far inside their limits, so only a gross change shows
    "pinching-moment": (analysis, "_hgg", _scaled(2.5), ("9",)),
    "minkowski-combination": (analysis, "minkowski_combine", _shrunk_combination, ("10",)),
    "doubled-quadrature": (quad, "_radial_rule", _finer_rule_scaled, ("11",)),
}

# acceptance.KNOWN_RED (4b, 5c) is red on purpose, so no mutant can show there.
# Its row is test_flow.py::test_scaling_pair_and_homothety_flow_obey_the_varentropy_law,
# which asserts the varentropy law that both red values obey.
# 4a is exempt: its worst mult slack sits at pairs where I is small, so even
# forms.form_I scaled by 1 + 1e-2 leaves it green; only a gross change shows.
EXEMPT = {"4a"}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_turns_its_criteria_red(monkeypatch, mutant):
    module, name, wrap, reds = MUTANTS[mutant]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    records = acceptance.run_all(ids=reds)
    assert [rec["id"] for rec in records] == list(reds)
    still_green = [rec["id"] for rec in records if rec["passed"]]
    assert not still_green, f"mutant {mutant} left {still_green} green"


def test_every_criterion_has_a_mutant_or_a_stated_reason():
    covered = {cid for *_, reds in MUTANTS.values() for cid in reds}
    unaccounted = [cid for cid, _ in acceptance.CRITERIA
                   if cid not in covered | acceptance.KNOWN_RED | EXEMPT]
    assert not unaccounted, f"criteria {unaccounted} have no mutant"


def test_empty_case_table_raises_instead_of_passing(monkeypatch):
    monkeypatch.setattr(acceptance, "_PINCHED_CONFIGS", ())
    with pytest.raises(ValueError, match="criterion 9 has an empty case table"):
        acceptance.run_all(ids=["9"])
