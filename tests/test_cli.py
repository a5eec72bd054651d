import re

import pytest

from convexlab import cli


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
    cfg = write(tmp_path / "f.cfg", SOLVE_CFG + "\nforms.pairs = 25\n")
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
], ids=["negative-radius", "nan-radius", "inf-axis", "nan-eps", "inf-eps", "nan-M",
        "N-below-4", "zero-pairs", "negative-samples"])
def test_bad_numeric_value_is_config_error(tmp_path, capsys, command, lines):
    # each line overrides the matching key of a valid disk + gaussian config
    cfg = {"body.kind": "disk", "potential.kind": "gaussian"}
    cfg.update(line.split(" = ") for line in lines.splitlines())
    path = write(tmp_path / "bad.cfg", "".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
