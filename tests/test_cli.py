import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexlab import cli, flow, measure
from convexlab.errors import ConfigError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SOLVE_CFG = """
# unit disk under the standard gaussian weight
body.kind = disk
body.radius = 1.0
potential.kind = gaussian
quad.M = 256
pde.N = 16
seed = 42
"""
# the same job for forms-check and flow, which read no pde.N
JOB_CFG = SOLVE_CFG.replace("pde.N = 16\n", "")


def test_solve_command_and_report(tmp_path):
    cfg = write(tmp_path / "solve.cfg", SOLVE_CFG)
    out = tmp_path / "out"
    assert cli.run("solve", cfg, out_dir=str(out)) == 0
    text = (out / "report.json").read_text()
    assert '"p": 1' in text.replace("0000", "")  # p == 1 to print precision
    # rho_bar constant e^{1/2} - 1 printed at 15 significant digits
    assert "0.648721270700129" in text
    assert (out / "rho_bar.csv").exists()


def test_determinism_bit_identical(tmp_path):
    cfg = write(tmp_path / "solve.cfg", SOLVE_CFG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.run("solve", cfg, out_dir=str(out), seed=7) == 0
        outs.append(((out / "report.json").read_bytes(),
                     (out / "rho_bar.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_unknown_key_rejected(tmp_path):
    cfg = write(tmp_path / "bad.cfg", SOLVE_CFG + "\nbody.twist = 3\n")
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_malformed_body_names_theta(tmp_path, capsys):
    cfg = write(tmp_path / "bad.cfg", """
body.kind = fourier
body.c0 = 1.0
body.cos2 = 0.4
potential.kind = gaussian
""")
    code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "theta" in err and "-0.2" in err


def test_missing_config_is_config_error():
    assert cli.main(["solve", "--config", "/nonexistent/x.cfg", "--out", "/tmp/o"]) == 2


def test_run_rejects_an_unknown_command_before_any_work(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match=r"^unknown command 'nope'$"):
        cli.run("nope", write(tmp_path / "s.cfg", SOLVE_CFG), out_dir=str(out))
    assert not out.exists()


def test_command_without_config_flag_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["solve", "--out", str(out)]) == 2
    assert "config error: command 'solve' requires --config" in capsys.readouterr().err
    assert not out.exists()


def test_numerical_failure_exit_code(tmp_path):
    # declared pinching that the quartic Hessian violates on the nodes
    cfg = write(tmp_path / "pinch.cfg", """
body.kind = disk
body.radius = 1.0
potential.kind = even-quartic
potential.eps = 0.1
potential.k1 = 5.0
potential.k2 = 5.0
""")
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_forms_check_command(tmp_path):
    cfg = write(tmp_path / "f.cfg", JOB_CFG + "\nforms.pairs = 25\n")
    out = tmp_path / "out"
    assert cli.run("forms-check", cfg, out_dir=str(out), seed=42) == 0
    text = (out / "report.json").read_text()
    assert "min_relative_mean_slack" in text


def test_scan_command_with_oracle(tmp_path):
    cfg = write(tmp_path / "s.cfg", """
potential.kind = gaussian
scan.radii = 0.5, 1.0, 2.0
""")
    out = tmp_path / "out"
    assert cli.run("scan", cfg, out_dir=str(out)) == 0
    rows = (out / "scan.csv").read_text().splitlines()
    assert rows[0] == "R,p,closed_form"
    R, p, oracle = (float(v) for v in rows[2].split(","))
    assert R == 1.0 and abs(p - 1.0) < 1e-9 and abs(oracle - 1.0) < 1e-12


def test_bm_command(tmp_path):
    cfg = write(tmp_path / "bm.cfg", """
body.kind = disk
body.radius = 0.5
body2.kind = disk
body2.radius = 1.5
potential.kind = gaussian
bm.p = 0.5
bm.nodes = 11
""")
    out = tmp_path / "out"
    assert cli.run("bm", cfg, out_dir=str(out)) == 0
    seg = (out / "segment.csv").read_text().splitlines()
    assert seg[0] == "t,mu,slack"
    assert len(seg) == 12


def test_bounds_command(tmp_path):
    cfg = write(tmp_path / "b.cfg", """
body.kind = ellipse
body.a = 2.0
body.b = 1.0
potential.kind = quadratic
potential.a = 1, 0, 0, 4
""")
    assert cli.run("bounds", cfg, out_dir=str(tmp_path / "out")) == 0


def test_flow_command(tmp_path):
    cfg = write(tmp_path / "fl.cfg", """
body.kind = disk
body.radius = 1.0
potential.kind = gaussian
flow.f.cos2 = 1.0
flow.psi.kind = quadratic
flow.psi.B = 0.3, 0.1, 0.1, 0.2
flow.eps = 0.08
flow.points = 9
""")
    out = tmp_path / "out"
    assert cli.run("flow", cfg, out_dir=str(out)) == 0
    assert (out / "marginal.csv").read_text().startswith("t,I,S")


def test_all_command_subset(tmp_path, capsys):
    cfg = write(tmp_path / "a.cfg", "accept.ids = 1, 2\n")
    out = tmp_path / "out"
    assert cli.run("all", cfg, out_dir=str(out)) == 0
    stdout = capsys.readouterr().out
    assert "PASS  criterion 1" in stdout
    assert "PASS  criterion 2" in stdout


def test_all_command_known_red_subset(tmp_path, capsys):
    # the knowingly red criterion drives a nonzero exit, by design
    cfg = write(tmp_path / "a.cfg", "accept.ids = 4b\n")
    assert cli.run("all", cfg, out_dir=str(tmp_path / "out")) == 1


def test_report_floats_have_15_significant_digits(tmp_path):
    cfg = write(tmp_path / "solve.cfg", SOLVE_CFG)
    out = tmp_path / "out"
    cli.run("solve", cfg, out_dir=str(out))
    text = (out / "report.json").read_text()
    longest = max((len(m) for m in re.findall(r"\d+\.\d+", text)), default=0)
    assert longest >= 15


def test_quad_m_override(tmp_path):
    cfg = write(tmp_path / "solve.cfg", SOLVE_CFG)
    out = tmp_path / "out"
    assert cli.run("solve", cfg, out_dir=str(out), quad_m=128) == 0
    assert '"quad.M": 128' in (out / "report.json").read_text()


@pytest.mark.parametrize("command, lines", [
    ("solve", "body.radius = -1"),
    ("solve", "body.radius = nan"),
    ("solve", "body.kind = ellipse\nbody.a = inf"),
    ("solve", "potential.kind = even-quartic\npotential.eps = nan"),
    ("solve", "potential.kind = even-quartic\npotential.eps = inf"),
    ("solve", "quad.M = nan"),
    ("solve", "pde.N = 3"),
    ("forms-check", "forms.pairs = 0"),
    ("spectral", "spectral.samples = -1"),
    ("solve", "potential.kind = even-quartic\npotential.eps = -1"),
    ("solve", "potential.kind = quadratic\npotential.a = 1, 0, 0, -1"),
    ("solve", "quad.Q = abc"),
    ("solve", "quad.Q = 32.5"),
    ("forms-check", "forms.pairs = true"),
    ("solve", "pde.N = 16, 18"),
    ("solve", "seed = x"),
    ("forms-check", "forms.pairs = x"),
    ("spectral", "spectral.samples = 20.0"),
    ("bm", "body2.kind = disk\nbm.nodes = abc"),
    ("flow", "flow.points = 2.5"),
    ("bm", "body2.kind = disk\nbm.nodes = 0"),
    ("bm", "body2.kind = disk\nbm.p = 0"),
    ("flow", "flow.points = 2"),
    ("scan", "scan.radii = 1.0, 0"),
    ("solve", "body.radius = abc"),
    ("bm", "body2.kind = disk\nbm.p = abc"),
    ("flow", "flow.f.cos2 = x"),
    ("solve", "potential.kind = quadratic\npotential.a = 1, 0, x, 1"),
    ("flow", "flow.psi.kind = quadratic\nflow.psi.B = 1, 2"),
    ("flow", "flow.psi.kind = quadratic\nflow.psi.b = 1"),
    ("flow", "flow.psi.kind = quadratic\nflow.psi.B = 1, 2, 3, 4"),
    ("flow", "flow.psi.kind = conjugate\nflow.psi.alpha = -1"),
    ("solve", "body.radius = true"),
    ("flow", "flow.eps = true"),
    ("flow", "flow.eps = 0"),
    ("flow", "flow.eps = -0.1"),
    ("bm", "body2.kind = disk\nbm.local_probe = maybe"),
    ("all", "accept.ids = 99"),
    ("forms-check", "seed = -1"),
    ("flow", "potential.kind = zero\nflow.psi.kind = conjugate"),
    ("scan", "body.kind = ellipse\nbody.a = 3"),
    ("all", "accept.ids = 1\nbody.kind = triangle"),
    ("all", "accept.ids = 1\npotential.kind = gaussian"),
    ("all", "accept.ids = 1\nquad.M = 128"),
], ids=["negative-radius", "nan-radius", "inf-axis", "nan-eps", "inf-eps", "nan-M",
        "N-below-4", "zero-pairs", "negative-samples", "negative-eps", "indefinite-A",
        "text-Q", "fractional-Q", "bool-pairs", "list-N", "text-seed", "text-pairs",
        "float-samples", "text-nodes", "fractional-points", "zero-nodes", "zero-p",
        "two-points", "zero-radius", "text-radius", "text-p", "text-harmonic",
        "text-A-entry", "two-entry-B", "one-entry-b", "asymmetric-B", "negative-alpha",
        "bool-radius", "bool-flow-eps", "zero-flow-eps", "negative-flow-eps",
        "text-probe", "unknown-criterion", "negative-seed", "conjugate-psi-of-zero",
        "scan-body", "all-body", "all-potential", "all-grid"])
def test_bad_numeric_value_is_config_error(tmp_path, capsys, command, lines):
    # each line overrides the matching key of a valid config: disk + gaussian,
    # gaussian alone for scan (it reads no body) and nothing for all
    cfg = {"scan": {"potential.kind": "gaussian"}, "all": {}}.get(
        command, {"body.kind": "disk", "potential.kind": "gaussian"})
    cfg.update(line.split(" = ") for line in lines.splitlines())
    path = write(tmp_path / "bad.cfg", "".join(f"{k} = {v}\n" for k, v in cfg.items()))
    out = tmp_path / "o"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (out / "report.json").exists()


DISK = "body.kind = disk\n"
GAUSSIAN = "potential.kind = gaussian\n"


@pytest.mark.parametrize("command, text, says", [
    ("solve", DISK + "potential.kind gaussian\n", "expected 'key = value'"),
    ("solve", DISK + GAUSSIAN + "body.kind = ellipse\n", "duplicate key 'body.kind'"),
    ("solve", "body.kind = triangle\n" + GAUSSIAN, "body: unknown body kind 'triangle'"),
    ("solve", DISK + "body.a = 2\n" + GAUSSIAN, "keys ['a'] do not apply to body kind 'disk'"),
    ("bm", DISK + "body2.kind = ellipse\nbody2.radius = 2\n" + GAUSSIAN,
     "body2: keys ['radius'] do not apply to body kind 'ellipse'"),
    ("solve", DISK + "body.cos2 = 0.1\n" + GAUSSIAN, "keys ['cos'] do not apply"),
    ("solve", DISK, "potential: unknown potential kind None"),
    ("solve", DISK + GAUSSIAN + "potential.k1 = 0.5\n", "pinching needs both constants"),
    ("bounds", DISK + GAUSSIAN + "potential.k2 = 0.5\n", "pinching needs both constants"),
    ("solve", DISK + GAUSSIAN + "potential.k1 = 2\npotential.k2 = 1\n", "0 < k1 <= k2"),
    ("solve", DISK + GAUSSIAN + "potential.k1 = 0\npotential.k2 = 1\n", "0 < k1 <= k2"),
    ("solve", DISK + "potential.kind = quadratic\n", "a quadratic potential needs its matrix A"),
    ("solve", DISK + GAUSSIAN + "potential.eps = 0.3\n",
     "keys ['eps'] do not apply to potential kind 'gaussian'"),
    ("solve", DISK + "potential.kind = quadratic\npotential.a = 1, 0, 0, 4\npotential.eps = 1\n",
     "keys ['eps'] do not apply to potential kind 'quadratic'"),
    ("flow", DISK + GAUSSIAN + "flow.psi.kind = cubic\n", "unknown flow.psi.kind 'cubic'"),
    ("solve", DISK + GAUSSIAN + "quad.M = 129\n", "quad.M must be even"),
    ("forms-check", DISK + GAUSSIAN + "pde.N = 16\n", "unknown key 'pde.N'"),
    ("flow", DISK + GAUSSIAN + "pde.N = 16\n", "unknown key 'pde.N'"),
], ids=["no-equals", "duplicate-key", "unknown-body-kind", "stray-body-key", "stray-body2-key",
        "harmonic-on-disk", "missing-potential-kind", "k1-without-k2", "k2-without-k1",
        "k1-above-k2", "zero-k1", "quadratic-without-a", "stray-gaussian-key",
        "stray-quadratic-key", "unknown-psi-kind", "odd-M", "forms-check-N", "flow-N"])
def test_config_rejection_names_the_problem(tmp_path, capsys, command, text, says):
    path = write(tmp_path / "bad.cfg", text)
    out = tmp_path / "o"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and says in err and "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, config, flag", [
    ("all", "accept.ids = 1\n", ["--quad-m", "64"]),
    ("all", "accept.ids = 1\n", ["--modes", "8"]),
    ("forms-check", DISK + GAUSSIAN, ["--modes", "8"]),
    ("flow", DISK + GAUSSIAN, ["--modes", "8"]),
], ids=["all-quad-m", "all-modes", "forms-check-modes", "flow-modes"])
def test_flag_for_a_key_the_command_does_not_read_is_config_error(tmp_path, capsys, command,
                                                                   config, flag):
    # all runs the criteria at their own grid; forms-check and flow assemble no basis
    path = write(tmp_path / "c.cfg", config)
    out = tmp_path / "o"
    assert cli.main([command, "--config", path, "--out", str(out), *flag]) == 2
    key = "quad.M" if flag[0] == "--quad-m" else "pde.N"
    assert f"unknown key '{key}' for command '{command}'" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_reads_the_declared_pinching(tmp_path):
    # k1/k2 replace the gaussian's own (1, 1) and set the pinching ratio r = k2/k1
    path = write(tmp_path / "b.cfg", DISK + GAUSSIAN + "potential.k1 = 0.5\npotential.k2 = 2\n")
    out = tmp_path / "o"
    assert cli.run("bounds", path, out_dir=str(out)) == 0
    results = json.loads((out / "report.json").read_text())["results"]
    assert (results["k1"], results["k2"], results["r"]) == (0.5, 2.0, 4.0)
    assert results["moment_limit"] == 8.0


@pytest.mark.parametrize("potential", ["potential.kind = even-quartic\npotential.eps = 0.1\n",
                                       "potential.kind = zero\n"])
def test_bounds_without_declared_pinching_is_config_error(tmp_path, capsys, monkeypatch,
                                                          potential):
    # refused before any assembly: the config lacks two keys, nothing numerical failed
    monkeypatch.setattr(cli, "pinching_bounds", None)
    path = write(tmp_path / "b.cfg", DISK + potential)
    out = tmp_path / "o"
    assert cli.main(["bounds", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == (
        "config error: potential: bounds requires the pinching constants "
        "potential.k1 and potential.k2")
    assert not (out / "report.json").exists()


def test_every_benchmark_config_parses(tmp_path):
    # the benchmark runs the CLI on these generated configs: none may be rejected
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for tiny in (False, True):
            jobs = workloads.generate(name, 5, 0, str(tmp_path / f"{name}-{tiny}"), tiny=tiny)
            assert jobs
            for job in jobs:
                cli.parse_config(job.config_path, job.command)


@pytest.mark.parametrize("command, lines, args", [
    ("solve", "pde.N = 127", []),  # solve also assembles at pde.N + 4
    ("solve", "", ["--modes", "124"]),
    ("spectral", "pde.N = 128", []),
    ("scan", "", ["--modes", "128"]),
], ids=["solve-N", "solve-modes", "spectral-N", "scan-modes"])
def test_modes_the_grid_cannot_resolve_are_config_error(tmp_path, capsys, command, lines,
                                                         args):
    # quad.M = 256 resolves harmonics below 128 only; scan reads no body
    body = "" if command == "scan" else "body.kind = disk\n"
    path = write(tmp_path / "n.cfg", f"{body}potential.kind = gaussian\n{lines}\n")
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o"), *args]) == 2
    assert "config error" in capsys.readouterr().err


FLOW_LINES = """
flow.f.cos2 = 1.0
flow.psi.kind = quadratic
flow.psi.B = 0.3, 0.1, 0.1, 0.2
flow.eps = 0.08
flow.points = 9
"""


@pytest.mark.parametrize("command, lines", [("solve", ""), ("flow", FLOW_LINES)],
                         ids=["solve", "flow"])
def test_one_job_evaluates_the_boundary_measure_once(tmp_path, monkeypatch, command, lines):
    # solve assembles twice and applies L; flow takes the shape derivatives
    # and the P form once each: all read H_mu and e^{-u} on dK from quad
    calls = []
    weight, hmu = measure.Potential.weight, measure.weighted_mean_curvature

    def counted_hmu(body, u, theta=None):
        calls.append("H_mu")
        return hmu(body, u, theta)

    def counted_weight(u, points):
        calls.append(np.shape(points))
        return weight(u, points)

    monkeypatch.setattr(measure.Potential, "weight", counted_weight)
    for mod in [m for name, m in sys.modules.items() if name.startswith("convexlab")]:
        if getattr(mod, "weighted_mean_curvature", None) is hmu:
            monkeypatch.setattr(mod, "weighted_mean_curvature", counted_hmu)
    path = write(tmp_path / "c.cfg", JOB_CFG + lines)
    assert cli.run(command, path, out_dir=str(tmp_path / "o")) == 0
    assert calls.count("H_mu") == 1 and calls.count((256, 2)) == 1


def test_flow_job_takes_the_shape_derivatives_once(tmp_path, monkeypatch):
    # the finite-difference check and the cross-module identity share one result
    calls = []
    shape_derivatives = flow.shape_derivatives

    def counted(*args, **kwargs):
        calls.append(args)
        return shape_derivatives(*args, **kwargs)

    for mod in [m for name, m in sys.modules.items() if name.startswith("convexlab")]:
        if getattr(mod, "shape_derivatives", None) is shape_derivatives:
            monkeypatch.setattr(mod, "shape_derivatives", counted)
    path = write(tmp_path / "c.cfg", JOB_CFG + FLOW_LINES)
    assert cli.run("flow", path, out_dir=str(tmp_path / "o")) == 0
    assert len(calls) == 1


def _reference_json_token(x):
    # the numpy-ufunc version that wrote every golden report
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not np.isfinite(x):
            return json.dumps("inf" if x > 0 else "-inf") if not np.isnan(x) else json.dumps("nan")
        return f"{x:.15g}"
    return json.dumps(str(x))


_TOKEN_CASES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
                -float("nan"), 0.1, -1 / 3, 1e16, 123456789012345678.0,
                np.float64(-0.0), np.float64(np.inf), np.float64(np.nan), np.float64(2 / 3),
                np.float32(0.1), np.float32(-0.0), np.float32(1e-45), np.float32(np.inf),
                np.float32(-np.inf), np.float32(np.nan), np.float16(0.3),
                0, -7, 2**70, np.int64(-3), np.int32(12), np.uint8(255),
                True, False, np.bool_(True), np.bool_(False), None, "text", "nan"]


@pytest.mark.parametrize("x", _TOKEN_CASES, ids=repr)
def test_json_token_matches_numpy_ufunc_version(x):
    assert cli._json_token(x) == _reference_json_token(x)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
       kind=st.sampled_from([float, np.float64, np.float32]))
def test_json_token_matches_numpy_ufunc_version_on_any_float(x, kind):
    with np.errstate(over="ignore"):
        x = kind(x)
    assert cli._json_token(x) == _reference_json_token(x)


def _isinstance_json_token(x):
    # the writer before its fast path for finite floats: every value through the type checks
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isfinite(x):
            return f"{x:.15g}"
        return json.dumps("nan" if math.isnan(x) else "inf" if x > 0 else "-inf")
    return json.dumps(str(x))


_FAST_PATH_CASES = [0.1, -1 / 3, -0.0, 5e-324, 1e308, float("inf"), float("-inf"), float("nan"),
                    np.float64(0.1), np.float64(-1 / 3), np.float64(-0.0), np.float64(5e-324),
                    np.float64(1e308), np.float64(np.inf), np.float64(-np.inf),
                    np.float64(np.nan), True, False, np.bool_(True), np.bool_(False), 0, -7,
                    2**70, np.int64(-3), np.float32(0.1), np.float32(np.inf), "text", "inf"]


@pytest.mark.parametrize("x", _FAST_PATH_CASES, ids=repr)
def test_json_token_fast_path_keeps_the_type_checked_text(x):
    assert cli._json_token(x) == _isinstance_json_token(x)


def test_csv_of_numpy_scalars_and_of_python_floats_are_the_same_bytes(tmp_path):
    values = np.array([0.1, -1 / 3, -0.0, 5e-324, 1e308, np.inf, -np.inf, np.nan, 2.0, 1e-7])
    grid = np.linspace(0.0, 2 * np.pi, values.size, endpoint=False)
    tables = {"numpy": list(zip(grid, values, np.arange(values.size))),
              "python": list(zip(grid.tolist(), values.tolist(), range(values.size)))}
    assert type(tables["numpy"][0][1]) is np.float64 and type(tables["python"][0][1]) is float
    expected = "".join(",".join(_isinstance_json_token(v).strip('"') for v in row) + "\n"
                       for row in tables["python"])
    for name, rows in tables.items():
        cli._write_csv(str(tmp_path / f"{name}.csv"), ("theta", "v", "k"), rows)
        assert (tmp_path / f"{name}.csv").read_text() == "theta,v,k\n" + expected
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


def test_bounds_refuses_a_body_that_is_not_symmetric(tmp_path, capsys):
    # pinching_bounds would raise a bare ValueError after the body was built
    path = write(tmp_path / "b.cfg", "body.kind = fourier\nbody.c0 = 1.0\nbody.cos2 = 0.15\n"
                                     "body.sin3 = 0.05\n" + GAUSSIAN)
    out = tmp_path / "o"
    assert cli.main(["bounds", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == (
        "config error: body: bounds requires an origin-symmetric body")
    assert not out.exists()


def test_solve_reports_a_coercivity_failure(tmp_path, capsys):
    # e^{-R^2/2} underflows to 0 on the boundary of the gaussian disk of radius 40
    path = write(tmp_path / "s.cfg", "body.kind = disk\nbody.radius = 40\n" + GAUSSIAN)
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: CoercivityFailure: Cholesky of the P-form Gram matrix failed at N=16")
    assert not (out / "report.json").exists()


def test_solve_reports_p_that_moves_under_basis_refinement(tmp_path, monkeypatch):
    concavity_power = cli.concavity_power

    def moved(*args, **kwargs):
        return concavity_power(*args, **kwargs) * (1.0 + 1e-6)

    monkeypatch.setattr(cli, "concavity_power", moved)
    out = tmp_path / "o"
    assert cli.run("solve", write(tmp_path / "s.cfg", SOLVE_CFG), out_dir=str(out)) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] == ["p not converged under basis refinement"]
    assert not report["passed"]


def test_failed_replace_leaves_no_temporary_file_and_the_old_report(tmp_path, monkeypatch):
    path = write(tmp_path / "s.cfg", SOLVE_CFG)
    out = tmp_path / "o"
    assert cli.run("solve", path, out_dir=str(out)) == 0
    before = {f.name: f.read_bytes() for f in out.iterdir()}

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError, match="^replace refused$"):
        cli.run("solve", path, out_dir=str(out), seed=7)
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before
    assert sorted(before) == ["report.json", "rho_bar.csv"]


@pytest.mark.parametrize("lines", [
    "flow.psi.B = 0.3, 0.1, 0.1, 0.2",
    "flow.psi.kind = none\nflow.psi.alpha = 0.5",
], ids=["no-kind", "kind-none"])
def test_flow_psi_keys_without_a_kind_are_config_error(tmp_path, capsys, lines):
    # without a psi kind the keys would be dropped and the flow run with psi = None
    path = write(tmp_path / "psi.cfg", "body.kind = disk\npotential.kind = gaussian\n"
                                       f"flow.f.cos2 = 1.0\n{lines}\n")
    assert cli.main(["flow", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "flow.psi.kind" in err


@pytest.mark.parametrize("body, code, says", [
    ("body.kind = ellipse\nbody.a = -1.0\n", 2,
     "config error: body: ellipse semi-axes must be positive"),
    ("body.kind = ellipse\nbody.a = 1e200\n", 2,
     "config error: body: support function samples must be finite"),
    ("body.kind = fourier\nbody.c0 = 1e308\nbody.cos2 = 1e308\n", 2,
     "config error: body: support function samples must be finite"),
    ("body.kind = fourier\nbody.c0 = 0\n", 3,
     "numerical failure: OriginOutside: Steiner-point centering left h <= 0; "
     "body is degenerate"),
], ids=["ellipse-negative-axis", "ellipse-overflow", "fourier-overflow", "fourier-point"])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_body_construction_checks_reach_the_exit_status(tmp_path, capsys, body, code, says):
    path = write(tmp_path / "bad.cfg", body + GAUSSIAN)
    out = tmp_path / "o"
    assert cli.main(["solve", "--config", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.strip() == says
    assert not (out / "report.json").exists()
