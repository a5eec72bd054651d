"""Config-driven command line front end.

Usage:

    convexlab COMMAND --config experiment.cfg [--out DIR] [--seed N]
                      [--quad-m M] [--modes N]

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

Each key is declared once, in ``_KEYS``, with its type and bound.  A key the
command does not read, from the config or a flag, or a value of the wrong
type or out of range, exits 2 before any work.  Body and potential keys
become descriptors, and ``make_body``/``make_potential`` own their defaults
and per-kind checks.  Every numeric lands in the report with 15 significant
digits, outputs are written atomically, and identical config + seed produces
bit-identical files.  Exit codes: 0 pass, 1 assertion failure, 2 config
error or other ``InvalidInput`` (``assemble`` refuses solve's pde.N + 4
refinement after the pde.N solve), 3 numerical failure; 2 and 3 write no report.

solve, forms-check, flow, spectral and scan call the acceptance criteria's
checks (``acceptance``), so their tolerances and failure messages are shared.
"""

import argparse
import ctypes
import functools
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import acceptance
from .analysis import bm_check, interpolation_constant, pinching_bounds, reformulation_check
from .errors import (ConfigError, ConvexLabError, InvalidInput, LebesgueModeRestriction,
                     NotConvexPotential, NotStrictlyConvex)
from .flow import FlowConfig, mean_form_from_flow
from .forms import BoundaryField
from .geometry import DEFAULT_M, make_body
from .measure import ConjugatePerturbation, QuadraticPerturbation, make_potential
from .pde import DEFAULT_N, assemble, concavity_power, solve_report
from .quad import DEFAULT_Q

__all__ = ["main", "run"]


# -- config file ---------------------------------------------------------------


def _is_real(x, above=-math.inf):
    # exact comparisons, so an int too large for a float is rejected too
    return type(x) in (int, float) and above < x and abs(x) <= sys.float_info.max


def _type(what, ok, convert=None, count=1):
    """A config value type: count items (None: one or more), each passing ok."""
    def read(value):
        items = value if isinstance(value, list) else [value]
        if count not in (None, len(items)) or not all(map(ok, items)):
            raise ValueError(what)
        items = items if convert is None else [convert(x) for x in items]
        return items[0] if count == 1 else items
    return read


def _integer(least):
    return _type(f"an integer >= {least}", lambda x: type(x) is int and x >= least)


def _reals(count):
    return _type(f"{count} comma-separated finite reals", _is_real, float, count)


_WORD = _type("a word", lambda x: type(x) is str)
_FLAG = _type("true or false", lambda x: type(x) is bool)
_REAL = _type("a finite real", _is_real, float)
_POSITIVE = _type("a finite real > 0", lambda x: _is_real(x, 0), float)
_IDS = [cid for cid, _ in acceptance.CRITERIA]
_SEED = {r"seed": _integer(0)}
_QUAD = {r"quad\.M": _integer(64), r"quad\.Q": _integer(16)}
_MODES = {r"pde\.N": _integer(4)}
_POTENTIAL = {r"potential\.kind": _WORD, r"potential\.a": _reals(4), r"potential\.eps": _REAL,
              r"potential\.k1": _REAL, r"potential\.k2": _REAL}
_BODY_KEYS = {"kind": _WORD, "radius": _REAL, "a": _REAL, "b": _REAL, "c0": _REAL,
              r"cos\d+": _REAL, r"sin\d+": _REAL}
# a command on one body under one potential
_BODY_JOB = {**_SEED, **_QUAD, **_POTENTIAL, **{rf"body\.{k}": t for k, t in _BODY_KEYS.items()}}

# Every config key, declared once with its type and bound: command -> {key pattern:
# type}, each command taking only the keys it reads.  --seed, --quad-m and --modes
# set seed, quad.M and pde.N, and are checked against the same declarations.
_KEYS = {
    "solve": {**_BODY_JOB, **_MODES},
    "forms-check": {**_BODY_JOB, r"forms\.pairs": _integer(1)},
    "flow": {**_BODY_JOB, r"flow\.eps": _POSITIVE, r"flow\.points": _integer(3),
             r"flow\.f\.(c0|cos\d+|sin\d+)": _REAL, r"flow\.psi\.kind": _WORD,
             r"flow\.psi\.B": _reals(4), r"flow\.psi\.b": _reals(2),
             r"flow\.psi\.c": _REAL, r"flow\.psi\.alpha": _REAL},
    "spectral": {**_BODY_JOB, **_MODES, r"spectral\.samples": _integer(1)},
    "bm": {**_BODY_JOB, **_MODES, **{rf"body2\.{k}": t for k, t in _BODY_KEYS.items()},
           r"bm\.p": _POSITIVE, r"bm\.nodes": _integer(1), r"bm\.local_probe": _FLAG},
    "bounds": {**_BODY_JOB, **_MODES},
    "scan": {**_SEED, **_QUAD, **_MODES, **_POTENTIAL,
             r"scan\.radii": _type("one or more comma-separated finite reals > 0",
                                    lambda x: _is_real(x, 0), float, None)},
    "all": {**_SEED, r"accept\.ids": _type("one or more criterion ids among " + ", ".join(_IDS),
                                            lambda x: str(x) in _IDS, str, None)},
}


def _read(command, key, value, where=""):
    """value checked against the declaration of key for command."""
    for pattern, read in _KEYS[command].items():
        if re.fullmatch(pattern, key):
            try:
                return read(value)
            except ValueError as exc:
                raise ConfigError(f"{where}{key} must be {exc}, got {value!r}") from None
    raise ConfigError(f"{where}unknown key {key!r} for command {command!r}")


def _parse_value(raw):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(v) for v in raw.split(",")]
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for number in (int, float):
        try:
            return number(raw)
        except ValueError:
            pass
    return raw


def parse_config(path, command):
    """Read a dotted-key config file, checking each value against its declaration.

    Returns the checked values and, for the report, the values as written.
    """
    cfg, written = {}, {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key in cfg:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        written[key] = _parse_value(raw)
        cfg[key] = _read(command, key, written[key], where=f"{path}:{ln}: ")
    return cfg, written


def _section(cfg, prefix):
    plen = len(prefix) + 1
    return {k[plen:]: v for k, v in cfg.items() if k.startswith(prefix + ".")}


def _construct(what, make, *args):
    """make(*args), with the constructor's rejection of the config as a ConfigError."""
    try:
        return make(*args)
    except (InvalidInput, NotConvexPotential, NotStrictlyConvex, LebesgueModeRestriction) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _build_body(cfg, M, prefix="body"):
    desc = _section(cfg, prefix)
    for wave in ("cos", "sin"):  # body.cosK = v -> {"cos": {K: v}}
        modes = {int(k[3:]): desc.pop(k) for k in list(desc) if k.startswith(wave)}
        if modes:
            desc[wave] = modes
    return _construct(prefix, make_body, desc, M)


def _build_potential(cfg):
    desc = _section(cfg, "potential")
    if "a" in desc:
        a = desc.pop("a")
        desc["A"] = [a[:2], a[2:]]
    if "k1" in desc or "k2" in desc:
        desc["pinching"] = (desc.pop("k1", None), desc.pop("k2", None))
    return _construct("potential", make_potential, desc)


def _build_psi(cfg, u):
    sec = _section(cfg, "flow.psi")
    kind = sec.pop("kind", "none")
    if kind == "quadratic":
        B = sec.pop("B", [0.0, 0.0, 0.0, 0.0])
        make, args = QuadraticPerturbation, ([B[:2], B[2:]], sec.pop("b", [0.0, 0.0]),
                                             sec.pop("c", 0.0))
    elif kind == "conjugate":
        make, args = ConjugatePerturbation, (u, sec.pop("alpha", 1.0))
    elif kind != "none":
        raise ConfigError(f"unknown flow.psi.kind {kind!r}")
    if sec:
        raise ConfigError(f"flow.psi keys {sorted(sec)} do not apply to flow.psi.kind {kind!r}")
    return None if kind == "none" else _construct("flow.psi", make, *args)


def _build_flow_field(cfg, M):
    t = 2.0 * np.pi * np.arange(M) / M
    sec = _section(cfg, "flow.f")
    vals = np.full(M, sec.pop("c0", 0.0))
    for k, v in sec.items():  # in file order, which fixes the rounding
        wave = np.cos if k.startswith("cos") else np.sin
        vals += v * wave(int(k[3:]) * t)
    return BoundaryField(vals)


# -- report serialization --------------------------------------------------------


def _json_token(x):
    # most tokens are finite floats: format those before the type checks below
    if (type(x) is float or type(x) is np.float64) and math.isfinite(x):
        return f"{x:.15g}"
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
    lines = [",".join(header)] + [",".join(f"{v:.15g}" for v in row) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


# -- commands ---------------------------------------------------------------------


def _cmd_solve(cfg, ctx):
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
    return results, tables, failures


def _cmd_forms_check(cfg, ctx):
    body = _build_body(cfg, ctx["M"])
    u = _build_potential(cfg)
    pairs = cfg.get("forms.pairs", acceptance.PAIRS)
    worst_mean, worst_mult, failures = acceptance.random_pairs_check(
        body, u, pairs, ctx["seed"], ctx["Q"])
    results = {"pairs": pairs, "min_relative_mean_slack": worst_mean,
               "min_relative_mult_slack": worst_mult}
    return results, {}, failures


def _cmd_flow(cfg, ctx):
    body = _build_body(cfg, ctx["M"])
    u = _build_potential(cfg)
    f = _build_flow_field(cfg, ctx["M"])
    psi = _build_psi(cfg, u)
    fc = FlowConfig(f=f, psi=psi, eps=cfg.get("flow.eps", FlowConfig.eps),
                    n_t=cfg.get("flow.points", FlowConfig.n_t))
    tab, failures = acceptance.concavity_check(body, u, fc, ctx["Q"])
    d, fd_failures = acceptance.shape_derivative_check(body, u, f, psi, ctx["Q"])
    failures += fd_failures
    cross = {}
    if psi is not None:
        cross = mean_form_from_flow(body, u, f, psi, Q=ctx["Q"], derivatives=d)
        if not cross["passed"]:
            failures.append(f"cross-module identity mismatch {cross['mismatch']:.3e}")
    results = {"eps": tab["eps"], **d,
               "max_second_difference": tab["max_second_difference"],
               **({f"cross_{k}": v for k, v in cross.items() if k != "passed"})}
    tables = {"marginal.csv": (("t", "I", "S"),
                               list(zip(tab["t"], tab["I"], tab["S"])))}
    return results, tables, failures


def _cmd_spectral(cfg, ctx):
    body = _build_body(cfg, ctx["M"])
    u = _build_potential(cfg)
    system = assemble(body, u, N=ctx["N"], Q=ctx["Q"])
    (lam, lam_res, note), stab, failures = acceptance.spectral_check(system, ctx["seed"])
    samples = cfg.get("spectral.samples", 1000)
    c_small, c_big = interpolation_constant(system, sample_size=(samples, 2 * samples),
                                            seed=ctx["seed"])
    if c_big > 1.2 * c_small:
        failures.append("interpolation constant unstable under sample doubling")
    results = {"lambda1": lam, "lambda1_restricted": lam_res, "coercivity_C": stab["C"],
               "stability_constant": stab["stability_constant"], "interpolation_c": c_small,
               **({"note_lambda1": note} if note else {}),
               "stability_slope": stab["slope"], "interpolation_constant_doubled": c_big}
    return results, {}, failures


def _cmd_bm(cfg, ctx):
    bodyK = _build_body(cfg, ctx["M"], prefix="body")
    bodyL = _build_body(cfg, ctx["M"], prefix="body2")
    u = _build_potential(cfg)
    rep = bm_check(bodyK, bodyL, u, cfg.get("bm.p", 0.5), t_nodes=cfg.get("bm.nodes", 21),
                   Q=ctx["Q"], local_probe=cfg.get("bm.local_probe", False), N=ctx["N"])
    failures = [] if rep.passed else [f"min slack {rep.min_slack:.3e} < -1e-9"]
    results = rep.to_dict()
    if bodyK.is_even and bodyL.is_even and u.is_even and not u.is_zero:
        ref = reformulation_check(bodyK, u, N=ctx["N"], Q=ctx["Q"])
        results["reformulation"] = ref
        if not ref["passed"]:
            failures.append("reformulation identity or sign test failed")
    tables = {"segment.csv": (("t", "mu", "slack"),
                              list(zip(rep.t_nodes, rep.mu_values, rep.slacks)))}
    return results, tables, failures


def _cmd_bounds(cfg, ctx):
    body = _build_body(cfg, ctx["M"])
    u = _build_potential(cfg)
    rep = pinching_bounds(body, u, N=ctx["N"], Q=ctx["Q"])
    failures = [] if rep["passed"] else [
        k for k in ("moment_bound", "inverse_power_bound", "power_lower_bound")
        if not rep[k]]
    return rep, {}, failures


def _cmd_scan(cfg, ctx):
    u = _build_potential(cfg)
    radii = cfg.get("scan.radii", acceptance.SCAN_RADII)
    rows, failures = acceptance.disk_scan(u, radii, ctx["M"], ctx["N"], ctx["Q"])
    results = {"radii": [r[0] for r in rows], "p": [r[1] for r in rows],
               "oracle": [r[2] for r in rows]}
    tables = {"scan.csv": (("R", "p", "closed_form"), rows)}
    return results, tables, failures


def _cmd_all(cfg, ctx):
    # the records less their wall-clock keys, so that a report's bytes are reproducible
    records = [{k: v for k, v in rec.items() if k not in ("elapsed", "time_limit")}
               for rec in acceptance.run_all(ids=cfg.get("accept.ids"))]
    failures = []
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        line = f"{status}  criterion {rec['id']:<11} {rec['name']}"
        print(line)
        if not rec["passed"]:
            failures.append(f"criterion {rec['id']}: {rec['name']}")
    return {"records": records}, {}, failures


_COMMANDS = {"solve": _cmd_solve, "forms-check": _cmd_forms_check, "flow": _cmd_flow,
             "spectral": _cmd_spectral, "bm": _cmd_bm, "bounds": _cmd_bounds,
             "scan": _cmd_scan, "all": _cmd_all}


@functools.cache
def _keep_heap():
    """Keep freed memory in this process's heap: glibc's mallopt, set once.

    By default glibc maps numpy's 128-256 KB temporaries and trims the heap's
    top, so every solve faults its pages in again.  With no mmap below 16 MiB
    and no trim below 64 MiB, freed buffers are reused.  A C library without
    mallopt is left as it is.  Set by ``run``, never at import.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run(command, config_path=None, out_dir="convexlab-out", seed=None, quad_m=None,
        modes=None):
    """Run one command; returns the exit status (artifacts land in out_dir)."""
    _keep_heap()
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if config_path is None and command != "all":
        raise ConfigError(f"command {command!r} requires --config")
    cfg, written = ({}, {}) if config_path is None else parse_config(config_path, command)
    flags = {"quad.M": quad_m, "pde.N": modes, "seed": seed}
    cfg.update({k: _read(command, k, v) for k, v in flags.items() if v is not None})
    ctx = {"M": cfg.get("quad.M", DEFAULT_M), "Q": cfg.get("quad.Q", DEFAULT_Q),
           "N": cfg.get("pde.N", DEFAULT_N), "seed": cfg.get("seed", 0)}
    if ctx["M"] % 2:
        raise ConfigError("quad.M must be even")
    if ctx["N"] >= ctx["M"] / 2:  # a command that reads no pde.N keeps 16 < 64 / 2
        raise ConfigError(f"pde.N must be < quad.M / 2 = {ctx['M'] // 2}")
    results, tables, failures = _COMMANDS[command](cfg, ctx)
    report = {
        "command": command,
        "config": {k: written[k] for k in sorted(written)},
        "overrides": {"quad.M": ctx["M"], "quad.Q": ctx["Q"], "pde.N": ctx["N"]},
        "seed": ctx["seed"],
        "results": results,
        "failures": failures,
        "passed": not failures,
    }
    _atomic_write(os.path.join(out_dir, "report.json"), dumps(report) + "\n")
    for name, (header, rows) in tables.items():
        _write_csv(os.path.join(out_dir, name), header, rows)
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
    parser.add_argument("--quad-m", type=int, default=None, help="override quad.M")
    parser.add_argument("--modes", type=int, default=None, help="override pde.N")
    args = parser.parse_args(argv)
    try:
        return run(args.command, config_path=args.config, out_dir=args.out,
                   seed=args.seed, quad_m=args.quad_m, modes=args.modes)
    except InvalidInput as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvexLabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
