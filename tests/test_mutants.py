"""Hand mutants: each check of the acceptance suite can go red.

Each row patches one name where the library looks it up, with a wrapper that
perturbs its result slightly, and runs only the criteria that must then fail.
A suite that stayed green under such a mutant would not be checking that
quantity.  Criteria 4a and 5a, the two slow ones, are left out of the table.
"""

import pytest

from convexlab import acceptance, flow, forms, pde, quad


def _scaled(factor):
    """Wrap a function so that its result is multiplied by ``factor``."""
    return lambda fn: lambda *args, **kwargs: fn(*args, **kwargs) * factor


def _scaled_weights(build):
    def mutant(body, Q):
        pts, weights = build(body, Q)
        return pts, weights * (1 + 1e-6)
    return mutant


MUTANTS = {
    # (module, name looked up there, wrapper, criteria that must go red)
    "interior-weights": (quad, "_build_nodes", _scaled_weights,
                         ("1", "2", "3", "4c", "5b", "5c-control", "8")),
    "mean-curvature": (quad, "weighted_mean_curvature", _scaled(1 + 1e-4),
                       ("2", "4c", "5c-control", "6", "8")),
    # H_mu as pde reads it scales assemble's B (and the strong form's H_mu term)
    "galerkin-B": (pde, "_hmu", _scaled(1 + 1e-6), ("2", "6", "8")),
    "form-BL": (forms, "form_BL", _scaled(1 + 1e-3), ("4c",)),
    # the flow's cross-module oracle reads BL where flow binds it
    "flow-form-BL": (flow, "form_BL", _scaled(1 + 1e-3), ("5d",)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_turns_its_criteria_red(monkeypatch, mutant):
    module, name, wrap, reds = MUTANTS[mutant]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    records = acceptance.run_all(ids=reds)
    assert [rec["id"] for rec in records] == list(reds)
    still_green = [rec["id"] for rec in records if rec["passed"]]
    assert not still_green, f"mutant {mutant} left {still_green} green"


def test_empty_case_table_raises_instead_of_passing(monkeypatch):
    monkeypatch.setattr(acceptance, "_PINCHED_CONFIGS", ())
    with pytest.raises(ValueError, match="criterion 9 has an empty case table"):
        acceptance.run_all(ids=["9"])
