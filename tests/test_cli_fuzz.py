"""A config fuzz over every command but ``all``, guarding the CLI's exit contract.

Exit 0 or 1 writes a report, and 1 lists its failures; exit 2 (bad input) and
3 (numerical failure) write none; nothing leaves as a traceback; and a report
holds no non-finite value but the documented ones.  The draws stay small (M <=
128, N <= 8, Q <= 24, at most 5 pairs, points, samples or nodes), so each run
takes milliseconds.  The drawn tokens pass their declarations, and half the
examples then replace one key with a bad token (a negative radius, ``true``,
text, p = 0, ...).
"""

import csv
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from convexlab import cli

COMMANDS = [c for c in cli._KEYS if c != "all"]


def _pick(*tokens):
    return st.sampled_from(tokens)


def _block(prefix, kind, **optional):
    """Keys prefix.kind = kind and any of the optional prefix.key = token."""
    return st.fixed_dictionaries(
        {f"{prefix}.kind": st.just(kind)},
        optional={f"{prefix}.{k}": _pick(*v) for k, v in optional.items()})


def _body(prefix):
    return st.one_of(
        _block(prefix, "disk", radius=("0.5", "1", "1.5", "2.5")),
        _block(prefix, "ellipse", a=("0.5", "1", "2"), b=("0.7", "1", "2")),
        _block(prefix, "fourier", c0=("1", "1.3", "0"), cos2=("0.05", "0.15", "0.5"),
               sin3=("0.02", "0.05"), cos4=("0.02",)))


# k2 < k1, an indefinite A, an asymmetric B, a conjugate psi of the zero
# potential or a body that is not strictly convex is rejected by the library,
# not by the key's declaration
POTENTIAL = st.one_of(
    _block("potential", "gaussian"),
    _block("potential", "quadratic", a=("1, 0, 0, 4", "2, 0.6, 0.6, 1", "1, 0, 0, -1")),
    _block("potential", "even-quartic", eps=("0", "0.1", "1")),
    _block("potential", "zero"))
PINCHING = _pick({}, {"potential.k1": "0.5", "potential.k2": "2"},
                 {"potential.k1": "1", "potential.k2": "0.5"})

PSI = st.one_of(
    st.just({}),
    _block("flow.psi", "quadratic", B=("0.3, 0.1, 0.1, 0.2", "1, 0, 0, 1", "1, 2, 3, 4"),
           b=("0, 0", "0.1, -0.2"), c=("0", "1")),
    _block("flow.psi", "conjugate", alpha=("0.5", "1")))

GENERAL = st.fixed_dictionaries(
    {"quad.M": st.integers(32, 64).map(lambda h: 2 * h), "quad.Q": st.integers(16, 24),
     "pde.N": st.integers(4, 8)},
    optional={"seed": _pick("0", "7"), "forms.pairs": st.integers(1, 5),
              "flow.eps": _pick("0.02", "0.05", "0.1"), "flow.points": st.integers(3, 5),
              "flow.f.c0": _pick("0.5", "-1"), "flow.f.cos2": _pick("0.3", "1"),
              "flow.f.sin3": _pick("0.2",), "spectral.samples": st.integers(1, 5),
              "bm.p": _pick("0.5", "0.25", "1"), "bm.nodes": st.integers(1, 5),
              "bm.local_probe": _pick("true", "false"),
              "scan.radii": st.lists(_pick("0.25", "0.5", "1", "2", "3"), min_size=1,
                                     max_size=3).map(", ".join)})

# half the examples replace one key (if the command reads it) with a bad token
SPOIL = st.one_of(st.just({}), _pick(
    {"quad.M": 97}, {"pde.N": 3}, {"seed": "-1"}, {"body.kind": "triangle"},
    {"body.radius": "-1"}, {"body.a": "true"}, {"body.cos4": "abc"}, {"bm.p": "0"},
    {"potential.k2": "0.5"}, {"flow.eps": "0"}, {"flow.psi.alpha": "-1"},
    {"flow.f.cos2": "x"}, {"forms.pairs": "0"}, {"scan.radii": "0.5, -1"},
    {"spectral.samples": "2.5"}))

ENTRIES = st.tuples(_body("body"), _body("body2"), POTENTIAL, PINCHING, PSI, GENERAL,
                    SPOIL).map(lambda parts: {k: v for part in parts for k, v in part.items()})


def _non_finite(obj, key=None):
    """(key, token) of each non-finite value in a report, written "nan", "inf" or "-inf"."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _non_finite(v, k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _non_finite(v, key)
    elif obj in ("nan", "inf", "-inf"):
        yield key, obj


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(COMMANDS), entries=ENTRIES)
def test_every_exit_keeps_the_report_contract(command, entries):
    # keys the command does not read are dropped, so most configs get past parsing
    cfg = {k: v for k, v in entries.items()
           if any(re.fullmatch(p, k) for p in cli._KEYS[command])}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "o"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")
        status = cli.main([command, "--config", str(path), "--out", str(out)])
        assert status in (0, 1, 2, 3)
        if status >= 2:
            assert not (out / "report.json").exists()
            return
        report = json.loads((out / "report.json").read_text())
        assert bool(report["failures"]) == (status == 1) == (not report["passed"])
        results = report["results"]
        # documented: lambda1 = inf with its note, lambda1_restricted = inf where the
        # non-constant energy block is nonpositive, scan's oracle (scan.csv's
        # closed_form) = nan without a closed form
        documented = {("lambda1_restricted", "inf"), ("oracle", "nan")}
        if "note_lambda1" in results:
            documented.add(("lambda1", "inf"))
        assert set(_non_finite(results)) <= documented
        for table in out.glob("*.csv"):
            rows = csv.DictReader(table.read_text().splitlines())
            for column, token in ((k, v) for row in rows for k, v in row.items()):
                if token in ("nan", "inf", "-inf"):
                    assert (table.name, column, token) == ("scan.csv", "closed_form", "nan")
