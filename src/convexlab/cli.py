"""Config-driven command line front end.

Usage:

    convexlab COMMAND --config experiment.cfg [--out DIR] [--seed N]
                      [--plot] [--quad-m M] [--modes N]

Commands: forms-check, solve, flow, spectral, bm, bounds, scan, all.

Config files are flat dotted-key text, one ``key = value`` per line with
``#`` comments, e.g.::

    body.kind = ellipse
    body.a = 2.0
    body.b = 1.0
    potential.kind = quadratic
    potential.a = 1, 0, 0, 4
    quad.M = 256
    pde.N = 16

Unknown keys are rejected.  Every numeric lands in the report with 15
significant digits, outputs are written atomically, and identical config +
seed produces bit-identical files.  Exit codes: 0 pass, 1 assertion failure,
2 config error, 3 numerical failure.

solve, forms-check, flow, spectral and scan call the acceptance criteria's
checks (``acceptance``), so their tolerances and failure messages are shared.
"""

import argparse
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import acceptance
from .analysis import bm_check, interpolation_constant, pinching_bounds, reformulation_check
from .errors import ConfigError, ConvexLabError, NotConvexPotential, NotStrictlyConvex
from .flow import FlowConfig, mean_form_from_flow
from .forms import BoundaryField
from .geometry import make_body
from .measure import ConjugatePerturbation, QuadraticPerturbation, make_potential
from .pde import assemble, concavity_power, solve_report

__all__ = ["main", "run"]


# -- config file ---------------------------------------------------------------

_COMMON_KEYS = [
    r"body\.kind", r"body\.radius", r"body\.a", r"body\.b", r"body\.c0",
    r"body\.cos\d+", r"body\.sin\d+",
    r"potential\.kind", r"potential\.a", r"potential\.eps",
    r"potential\.k1", r"potential\.k2",
    r"quad\.M", r"quad\.Q", r"pde\.N", r"seed",
]

def _parse_value(raw):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(v) for v in raw.split(",")]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def parse_config(path, command):
    """Read a dotted-key config file, rejecting keys unknown to the command."""
    allowed = [re.compile(f"^(?:{pat})$")
               for pat in _COMMON_KEYS + _COMMANDS[command][1]]
    cfg = {}
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if not any(pat.match(key) for pat in allowed):
            raise ConfigError(f"{path}:{ln}: unknown key {key!r} for command {command!r}")
        if key in cfg:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        value = _parse_value(raw)
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not np.isfinite(v) for v in items):
            raise ConfigError(f"{path}:{ln}: {key} must be finite, got {raw!r}")
        cfg[key] = value
    return cfg


def _int_key(cfg, key, default, least=None):
    """The integer value of a config key; a non-integer or one below least is a config error."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}")
    return value


def _section(cfg, prefix):
    plen = len(prefix) + 1
    return {k[plen:]: v for k, v in cfg.items() if k.startswith(prefix + ".")}


def _body_descriptor(sec):
    kind = sec.pop("kind", None)
    if kind is None:
        raise ConfigError("body.kind is required")
    if kind == "disk":
        return {"kind": "disk", "radius": float(sec.pop("radius", 1.0)), **_leftover(sec)}
    if kind == "ellipse":
        return {"kind": "ellipse", "a": float(sec.pop("a", 1.0)),
                "b": float(sec.pop("b", 1.0)), **_leftover(sec)}
    if kind == "fourier":
        cos = {int(k[3:]): float(sec.pop(k)) for k in list(sec) if k.startswith("cos")}
        sin = {int(k[3:]): float(sec.pop(k)) for k in list(sec) if k.startswith("sin")}
        return {"kind": "fourier", "c0": float(sec.pop("c0", 1.0)),
                "cos": cos, "sin": sin, **_leftover(sec)}
    raise ConfigError(f"unknown body.kind {kind!r}")


def _leftover(sec):
    if sec:
        raise ConfigError(f"keys {sorted(sec)} do not apply to this body kind")
    return {}


def _build_body(cfg, M, prefix="body"):
    sec = _section(cfg, prefix)
    desc = _body_descriptor(sec)
    try:
        return make_body(desc, M=M)
    except NotStrictlyConvex as exc:
        raise ConfigError(
            f"{prefix} descriptor is not strictly convex: h + h'' = "
            f"{exc.value:.6g} at theta = {exc.theta:.6g}") from exc
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


def _build_potential(cfg):
    sec = _section(cfg, "potential")
    kind = sec.pop("kind", None)
    if kind is None:
        raise ConfigError("potential.kind is required")
    pinching = None
    if "k1" in sec or "k2" in sec:
        try:
            pinching = (float(sec.pop("k1")), float(sec.pop("k2")))
        except KeyError as exc:
            raise ConfigError("explicit pinching needs both potential.k1 and potential.k2") from exc
        if not 0 < pinching[0] <= pinching[1]:
            raise ConfigError("pinching needs 0 < k1 <= k2")
    desc = {"kind": kind}
    if kind == "quadratic":
        a = sec.pop("a", None)
        if a is None or not isinstance(a, list) or len(a) != 4:
            raise ConfigError("potential.a must give 4 row-major entries")
        desc["A"] = [[float(a[0]), float(a[1])], [float(a[2]), float(a[3])]]
    elif kind == "even-quartic":
        desc["eps"] = float(sec.pop("eps", 0.0))
        desc["pinching"] = pinching
    if sec:
        raise ConfigError(f"keys {sorted(sec)} do not apply to potential kind {kind!r}")
    try:
        u = make_potential(desc)
    except (ValueError, NotConvexPotential) as exc:
        raise ConfigError(str(exc)) from exc
    if pinching is not None and kind != "even-quartic":
        u.pinching = pinching
    return u


def _build_psi(cfg, u):
    sec = _section(cfg, "flow.psi")
    kind = sec.pop("kind", "none")
    if kind == "none":
        if sec:
            raise ConfigError(f"flow.psi keys {sorted(sec)} need flow.psi.kind "
                              "quadratic or conjugate")
        return None
    if kind == "quadratic":
        B = sec.pop("B", [0.0, 0.0, 0.0, 0.0])
        b = sec.pop("b", [0.0, 0.0])
        c = float(sec.pop("c", 0.0))
        if sec:
            raise ConfigError(f"unused flow.psi keys {sorted(sec)}")
        return QuadraticPerturbation(B=[[B[0], B[1]], [B[2], B[3]]], b=b, c=c)
    if kind == "conjugate":
        alpha = float(sec.pop("alpha", 1.0))
        if sec:
            raise ConfigError(f"unused flow.psi keys {sorted(sec)}")
        return ConjugatePerturbation(u, alpha)
    raise ConfigError(f"unknown flow.psi.kind {kind!r}")


def _build_flow_field(cfg, M):
    sec = _section(cfg, "flow.f")
    t = 2.0 * np.pi * np.arange(M) / M
    vals = np.full(M, float(sec.pop("c0", 0.0)))
    for k, v in list(sec.items()):
        if k.startswith("cos"):
            vals += float(v) * np.cos(int(k[3:]) * t)
        elif k.startswith("sin"):
            vals += float(v) * np.sin(int(k[3:]) * t)
        else:
            raise ConfigError(f"unknown flow.f key {k!r}")
    return BoundaryField(vals)


# -- report serialization --------------------------------------------------------


def _json_token(x):
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


def dumps(obj, indent=0):
    """JSON text with every float printed at 15 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _json_token(obj)


def _atomic_write(path, text):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_json_token(v).strip('"') for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items()
                if k not in ("elapsed", "time_limit")}
    if isinstance(obj, (list, tuple)):
        return [_strip_timing(v) for v in obj]
    return obj


# -- commands ---------------------------------------------------------------------


def _cmd_solve(cfg, ctx):
    if 2 * (ctx["N"] + 4) >= ctx["M"]:
        raise ConfigError(f"solve refines to pde.N + 4 = {ctx['N'] + 4} modes, which "
                          f"need quad.M > {2 * (ctx['N'] + 4)}")
    body = _build_body(cfg, ctx["M"])
    u = _build_potential(cfg)
    rep = solve_report(body, u, N=ctx["N"], Q=ctx["Q"])
    p_refined = concavity_power(body, u, N=ctx["N"] + 4, Q=ctx["Q"])
    failures = acceptance.residual_check(rep)
    if abs(p_refined - rep["p"]) > 1e-8 * max(1.0, abs(rep["p"])):
        failures.append("p not converged under basis refinement")
    results = {"p": rep["p"], "p_refined": p_refined,
               "rho_bar_coefficients": rep["rho_bar"].galerkin_coeffs.tolist(),
               "p_form_identity": rep["p_form_identity"],
               "strong_residual": rep["strong_residual"],
               "condition_estimate": rep["condition_estimate"],
               "muK": rep["muK"], "mu_boundary": rep["mu_boundary"]}
    tables = {"rho_bar.csv": (("theta", "rho_bar"),
                              list(zip(body.theta_grid, rep["rho_bar"].values)))}
    return results, tables, failures, {}


def _cmd_forms_check(cfg, ctx):
    body = _build_body(cfg, ctx["M"])
    u = _build_potential(cfg)
    pairs = _int_key(cfg, "forms.pairs", 200, 1)
    worst_mean, worst_mult, failures = acceptance.random_pairs_check(
        body, u, pairs, ctx["seed"], ctx["Q"])
    results = {"pairs": pairs, "min_relative_mean_slack": worst_mean,
               "min_relative_mult_slack": worst_mult}
    return results, {}, failures, {}


def _cmd_flow(cfg, ctx):
    body = _build_body(cfg, ctx["M"])
    u = _build_potential(cfg)
    f = _build_flow_field(cfg, ctx["M"])
    psi = _build_psi(cfg, u)
    fc = FlowConfig(f=f, psi=psi, eps=float(cfg.get("flow.eps", 0.1)),
                    n_t=_int_key(cfg, "flow.points", 21, 3))
    tab, failures = acceptance.concavity_check(body, u, fc, ctx["Q"])
    d, fd_failures = acceptance.shape_derivative_check(body, u, f, psi, ctx["Q"])
    failures += fd_failures
    cross = {}
    if psi is not None:
        cross = mean_form_from_flow(body, u, f, psi, Q=ctx["Q"])
        if not cross["passed"]:
            failures.append(f"cross-module identity mismatch {cross['mismatch']:.3e}")
    results = {"eps": tab["eps"], **d,
               "max_second_difference": tab["max_second_difference"],
               **({f"cross_{k}": v for k, v in cross.items() if k != "passed"})}
    tables = {"marginal.csv": (("t", "I", "S"),
                               list(zip(tab["t"], tab["I"], tab["S"])))}
    plots = {"marginal.svg": ("flow", tab)}
    return results, tables, failures, plots


def _cmd_spectral(cfg, ctx):
    body = _build_body(cfg, ctx["M"])
    u = _build_potential(cfg)
    system = assemble(body, u, N=ctx["N"], Q=ctx["Q"])
    (lam, lam_res, note), stab, failures = acceptance.spectral_check(system, ctx["seed"])
    samples = _int_key(cfg, "spectral.samples", 1000, 1)
    c_small, c_big = interpolation_constant(system, sample_size=(samples, 2 * samples),
                                            seed=ctx["seed"])
    if c_big > 1.2 * c_small:
        failures.append("interpolation constant unstable under sample doubling")
    results = {"lambda1": lam, "lambda1_restricted": lam_res, "coercivity_C": stab["C"],
               "stability_constant": stab["stability_constant"], "interpolation_c": c_small,
               **({"note_lambda1": note} if note else {}),
               "stability_slope": stab["slope"], "interpolation_constant_doubled": c_big}
    return results, {}, failures, {}


def _cmd_bm(cfg, ctx):
    bodyK = _build_body(cfg, ctx["M"], prefix="body")
    bodyL = _build_body(cfg, ctx["M"], prefix="body2")
    u = _build_potential(cfg)
    p = float(cfg.get("bm.p", 0.5))
    if not p > 0:
        raise ConfigError("bm.p must be > 0")
    nodes = _int_key(cfg, "bm.nodes", 21, 1)
    probe = bool(cfg.get("bm.local_probe", False))
    rep = bm_check(bodyK, bodyL, u, p, t_nodes=nodes, Q=ctx["Q"],
                   local_probe=probe, N=ctx["N"])
    failures = [] if rep.passed else [f"min slack {rep.min_slack:.3e} < -1e-9"]
    results = rep.to_dict()
    if bodyK.is_even and bodyL.is_even and u.is_even and not u.is_zero:
        ref = reformulation_check(bodyK, u, N=ctx["N"], Q=ctx["Q"])
        results["reformulation"] = ref
        if not ref["passed"]:
            failures.append("reformulation identity or sign test failed")
    tables = {"segment.csv": (("t", "mu", "slack"),
                              list(zip(rep.t_nodes, rep.mu_values, rep.slacks)))}
    return results, tables, failures, {}


def _cmd_bounds(cfg, ctx):
    body = _build_body(cfg, ctx["M"])
    u = _build_potential(cfg)
    rep = pinching_bounds(body, u, N=ctx["N"], Q=ctx["Q"])
    failures = [] if rep["passed"] else [
        k for k in ("moment_bound", "inverse_power_bound", "power_lower_bound")
        if not rep[k]]
    return rep, {}, failures, {}


def _cmd_scan(cfg, ctx):
    u = _build_potential(cfg)
    radii = cfg.get("scan.radii", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    if not isinstance(radii, list):
        radii = [radii]
    if not all(type(r) in (int, float) and r > 0 for r in radii):
        raise ConfigError(f"scan.radii must be positive numbers, got {radii!r}")
    rows, failures = acceptance.disk_scan(u, radii, ctx["M"], ctx["N"], ctx["Q"])
    results = {"radii": [r[0] for r in rows], "p": [r[1] for r in rows],
               "oracle": [r[2] for r in rows]}
    tables = {"scan.csv": (("R", "p", "closed_form"), rows)}
    plots = {"scan.svg": ("scan", rows)}
    return results, tables, failures, plots


def _cmd_all(cfg, ctx):
    ids = cfg.get("accept.ids")
    if ids is not None:
        ids = [str(x) for x in (ids if isinstance(ids, list) else [ids])]
    records = acceptance.run_all(ids=ids)
    failures = []
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        line = f"{status}  criterion {rec['id']:<11} {rec['name']}"
        print(line)
        if not rec["passed"]:
            failures.append(f"criterion {rec['id']}: {rec['name']}")
    results = {"records": records}
    return results, {}, failures, {}


# command -> (function, patterns of the config keys it reads beyond _COMMON_KEYS)
_COMMANDS = {
    "solve": (_cmd_solve, []),
    "forms-check": (_cmd_forms_check, [r"forms\.pairs"]),
    "flow": (_cmd_flow, [r"flow\.eps", r"flow\.points", r"flow\.f\.c0", r"flow\.f\.cos\d+",
                         r"flow\.f\.sin\d+", r"flow\.psi\.kind", r"flow\.psi\.B",
                         r"flow\.psi\.b", r"flow\.psi\.c", r"flow\.psi\.alpha"]),
    "spectral": (_cmd_spectral, [r"spectral\.samples"]),
    "bm": (_cmd_bm, [r"body2\.kind", r"body2\.radius", r"body2\.a", r"body2\.b",
                     r"body2\.c0", r"body2\.cos\d+", r"body2\.sin\d+",
                     r"bm\.p", r"bm\.nodes", r"bm\.local_probe"]),
    "bounds": (_cmd_bounds, []),
    "scan": (_cmd_scan, [r"scan\.radii"]),
    "all": (_cmd_all, [r"accept\.ids"]),
}


def _plot(path, kind, payload):
    try:
        import matplotlib
        matplotlib.use("svg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ConfigError("--plot requires matplotlib") from exc
    fig, ax = plt.subplots(figsize=(6, 4))
    if kind == "flow":
        t, S = payload["t"], payload["S"]
        ax.plot(t, S, marker="o", ms=3, label="S(t)")
        ax.plot([t[0], t[-1]], [S[0], S[-1]], "--", label="chord")
        ax.set_xlabel("t")
        ax.set_ylabel("log marginal")
        ax.legend()
    elif kind == "scan":
        R = [r[0] for r in payload]
        p = [r[1] for r in payload]
        oracle = [r[2] for r in payload]
        ax.plot(R, p, marker="o", ms=4, label="computed p")
        if np.all(np.isfinite(oracle)):
            ax.plot(R, oracle, "--", label="closed form")
        ax.set_xlabel("R")
        ax.set_ylabel("concavity power")
        ax.legend()
    fig.tight_layout()
    fig.savefig(path, format="svg")
    plt.close(fig)


def run(command, config_path=None, out_dir="convexlab-out", seed=None,
        plot=False, quad_m=None, modes=None):
    """Run one command; returns the exit status (artifacts land in out_dir)."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = {} if config_path is None else parse_config(config_path, command)
    if config_path is None and command != "all":
        raise ConfigError(f"command {command!r} requires --config")
    ctx = {
        "M": int(quad_m) if quad_m is not None else _int_key(cfg, "quad.M", 256),
        "Q": _int_key(cfg, "quad.Q", 32, 16),
        "N": int(modes) if modes is not None else _int_key(cfg, "pde.N", 16),
        "seed": int(seed) if seed is not None else _int_key(cfg, "seed", 0),
    }
    if ctx["M"] < 64 or ctx["M"] % 2:
        raise ConfigError("quad.M must be even and >= 64")
    if not 4 <= ctx["N"] < ctx["M"] / 2:
        raise ConfigError(f"pde.N must be >= 4 and < quad.M / 2 = {ctx['M'] // 2}")
    results, tables, failures, plots = _COMMANDS[command][0](cfg, ctx)
    report = {
        "command": command,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "overrides": {"quad.M": ctx["M"], "quad.Q": ctx["Q"], "pde.N": ctx["N"]},
        "seed": ctx["seed"],
        "results": _strip_timing(results),
        "failures": failures,
        "passed": not failures,
    }
    _atomic_write(os.path.join(out_dir, "report.json"), dumps(report) + "\n")
    for name, (header, rows) in tables.items():
        _write_csv(os.path.join(out_dir, name), header, rows)
    if plot:
        for name, (kind, payload) in plots.items():
            _plot(os.path.join(out_dir, name), kind, payload)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(f"{command}: {'pass' if not failures else 'FAIL'} "
          f"(report in {os.path.join(out_dir, 'report.json')})")
    return 0 if not failures else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="convexlab",
        description="planar convex bodies, log-concave measures, and their inequalities")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="dotted-key config file")
    parser.add_argument("--out", default="convexlab-out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--plot", action="store_true", help="emit SVG plots")
    parser.add_argument("--quad-m", type=int, default=None, help="override quad.M")
    parser.add_argument("--modes", type=int, default=None, help="override pde.N")
    args = parser.parse_args(argv)
    try:
        return run(args.command, config_path=args.config, out_dir=args.out,
                   seed=args.seed, plot=args.plot, quad_m=args.quad_m,
                   modes=args.modes)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvexLabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
