"""The acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
failure output) and asserts both the criterion content and its runtime limit.

Two criteria are knowingly red and are asserted as stated anyway:

  * 4b  the alpha-scaling "equality witnesses": direct computation (three
        independent routes: the bilinear forms, the closed-form log-marginal,
        and finite differences of the flow) shows the mean-form slack is
        strictly positive for alpha > 0 (about 2.45 on the Gaussian unit
        disk at alpha = 1), not 0 at 1e-8 scale;
  * 5c  the homothety-flow linearity claim |S''(0)| <= 1e-8: in fact
        S''(0) = Var_{mu|K}(u) - n (about -1.979 on the Gaussian unit disk).

The translation family is the genuine equality case; controls 4c and
5c-control verify the pipeline resolves it at rounding scale, so the red
status of 4b/5c reflects the claim itself, not numerical slack.

``golden/records.json`` pins every record bit for bit: each field but the
wall-clock ``elapsed`` and ``time_limit``, with every float written as
``float.hex``, the criterion-11 scalars included.  A change that keeps the
numerical program the same keeps that file.  ``python tests/test_acceptance.py``
writes it from the current tree.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from convexlab import acceptance

GOLDEN_RECORDS = Path(__file__).parent / "golden" / "records.json"


@pytest.fixture(scope="module")
def records():
    out = {}
    for cid, fn in acceptance.CRITERIA:
        out[cid] = fn()
    return out


def _exact(obj):
    """obj as JSON data with every float written as float.hex."""
    if isinstance(obj, dict):
        return {k: _exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_exact(v) for v in obj]
    if isinstance(obj, float):
        return float.hex(obj)
    return obj


def exact_records(records):
    """The records without their wall-clock fields, floats as float.hex."""
    return [_exact({k: v for k, v in rec.items() if k not in ("elapsed", "time_limit")})
            for rec in records.values()]


def _report(rec):
    status = "PASS" if rec["passed"] else "FAIL"
    print(f"{status}  criterion {rec['id']}: {rec['name']} "
          f"({rec['elapsed']:.2f}s)")


@pytest.mark.parametrize("cid", [cid for cid, _ in acceptance.CRITERIA])
def test_criterion(records, cid):
    rec = records[cid]
    _report(rec)
    if rec["time_limit"] is not None:
        assert rec["elapsed"] <= rec["time_limit"], (
            f"criterion {cid} exceeded its {rec['time_limit']}s budget: "
            f"{rec['elapsed']:.2f}s")
    note = rec["details"].get("note", "")
    assert rec["passed"], (
        f"criterion {cid} ({rec['name']}) failed. "
        + (f"Known discrepancy: {note} " if cid in acceptance.KNOWN_RED else "")
        + f"details: {rec['details']}")


def test_flow_criteria_fit_shared_budget(records):
    total = sum(rec["elapsed"] for cid, rec in records.items()
                if cid.startswith("5"))
    print(f"criterion 5 total elapsed: {total:.2f}s (budget 4s)")
    assert total <= 4.0


def test_records_match_golden(records):
    expected = json.loads(GOLDEN_RECORDS.read_text())
    got = exact_records(records)
    assert [r["id"] for r in got] == [r["id"] for r in expected]
    for want, have in zip(expected, got):
        assert have == want, f"criterion {want['id']} differs from golden/records.json"


def test_everything_except_known_red_passes(records):
    unexpected = [cid for cid, rec in records.items()
                  if not rec["passed"] and cid not in acceptance.KNOWN_RED]
    assert not unexpected, f"unexpected failures: {unexpected}"


def test_registry_ids_names_and_budgets(records):
    assert [(rec["id"], rec["name"], rec["time_limit"]) for rec in records.values()] == [
        ("1", "gaussian unit disk solve", 1.0),
        ("2", "gaussian disk radius scan", 1.0),
        ("3", "divergence identity on the test matrix", 1.0),
        ("4a", "inequality suites on random pairs", 3.0),
        ("4b", "scaling-family equality witnesses (knowingly red)", 1.0),
        ("4c", "translation-family equality control", 1.0),
        ("5a", "log-marginal concavity over the flow matrix", 2.5),
        ("5b", "shape derivatives vs finite-difference oracles", 1.0),
        ("5c", "homothety flow linearity (knowingly red)", 1.0),
        ("5c-control", "translation flow linearity control", 1.0),
        ("5d", "flow vs forms cross-module identity", 1.0),
        ("6", "spectral constants and stability scaling", 1.0),
        ("7", "even symmetry of the minimizer", 1.0),
        ("8", "dimensional reformulation checks", 1.0),
        ("9", "pinched-Hessian moment and power bounds", 1.0),
        ("10", "Brunn-Minkowski segments at p = 1/2", 1.0),
        ("11", "quadrature doubling gate", None),
    ]
    for rec in records.values():
        assert list(rec) == ["id", "name", "passed", "elapsed", "time_limit", "details"]


def test_random_pairs_check_lists_each_failing_pair(monkeypatch, disk1, gaussian):
    def negative_slack(*args, **kwargs):
        return [dataclasses.replace(rep, slack_mean=-0.25, slack_mult=-1.5,
                                    passed_mean=False, passed_mult=False)
                for rep in pair_reports(*args, **kwargs)]

    pair_reports = acceptance._pair_reports
    monkeypatch.setattr(acceptance, "_pair_reports", negative_slack)
    _, _, failures = acceptance.random_pairs_check(disk1, gaussian, 2, 0, Q=8)
    assert failures == ["pair 0: mean slack -2.500e-01, mult slack -1.500e+00",
                        "pair 1: mean slack -2.500e-01, mult slack -1.500e+00"]


def test_spectral_check_names_each_failed_claim(monkeypatch):
    monkeypatch.setattr(acceptance, "lambda1", lambda system: (0.5, 0.5, ""))
    monkeypatch.setattr(acceptance, "coercivity_report", lambda system, seed: {
        "C": -0.125, "slope": 0.25, "bound_holds": False})
    lam, stab, failures = acceptance.spectral_check(None, 7)
    assert lam == (0.5, 0.5, "") and stab["C"] == -0.125
    assert failures == ["lambda1 = 0.5 <= 1",
                        "coercivity constant -0.125 <= 0",
                        "stability slope 0.25 != 0.5",
                        "deficit bound 1/sqrt(C) violated on the delta family"]


if __name__ == "__main__":
    recs = {cid: fn() for cid, fn in acceptance.CRITERIA}
    GOLDEN_RECORDS.write_text(json.dumps(exact_records(recs), indent=1) + "\n")
