"""The benchmark's workloads: seeded CLI jobs on generated config files.

A workload is a list of jobs.  Each job is one ``convexlab`` CLI command on
a config file that this module writes; ``flow`` jobs also transport a point
cloud with ``flow.vector_field_X``.  Every input comes from a numpy
generator seeded by (benchmark seed, pass index), so the same seed gives the
same inputs and every pass of a run gets inputs of its own.

Why these three workloads:

* ``forms-reuse`` repeats ``check_mean_form`` hundreds of times on each of
  three fixed (body, potential, Q) triples: whatever depends only on that
  triple (quadrature nodes, weights, mu(K)) is recomputed for every pair.
* ``flow-fresh`` builds a new body K_t and potential u_t for every t of the
  flow, so nothing keyed on the body repeats; Newton-backed potentials and
  the per-point gauge loop dominate.
* ``solve-sweep`` is the Galerkin solver and the spectral analysis at a
  large basis (``pde.N = 44``): Gram assembly, Cholesky and the
  interpolation-constant sample loop, with few interior integrals.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from convexlab import acceptance, forms, geometry

WORKLOADS = ("forms-reuse", "flow-fresh", "solve-sweep")

BODIES = {
    "disk1": {"kind": "disk", "radius": 1.0},
    "disk05": {"kind": "disk", "radius": 0.5},
    "disk15": {"kind": "disk", "radius": 1.5},
    "ellipse21": {"kind": "ellipse", "a": 2.0, "b": 1.0},
    "ellipse12": {"kind": "ellipse", "a": 1.0, "b": 2.0},
    "blob": {"kind": "fourier", "c0": 1.0, "cos2": 0.15, "sin3": 0.05},
    "peanut": {"kind": "fourier", "c0": 1.0, "cos2": 0.1, "cos4": 0.02},
}

POTENTIALS = {
    "gaussian": {"kind": "gaussian"},
    "quad14": {"kind": "quadratic", "a": (1, 0, 0, 4)},
    "quad12": {"kind": "quadratic", "a": (1, 0, 0, 2)},
    "quad_mixed": {"kind": "quadratic", "a": (2, 0.6, 0.6, 1)},
    "quartic": {"kind": "even-quartic", "eps": 0.1},
}

# Bodies symmetric about the origin (pinching bounds need them).
EVEN_BODIES = ("disk1", "disk05", "disk15", "ellipse21", "ellipse12", "peanut")
SPECTRAL_CONFIGS = (("disk1", "gaussian"), ("disk05", "gaussian"),
                    ("ellipse21", "gaussian"), ("ellipse21", "quad14"),
                    ("peanut", "quartic"))
BM_CONFIGS = (("disk1", "ellipse21", "gaussian"), ("ellipse12", "peanut", "quad14"),
              ("disk05", "disk15", "quartic"))
SOLVE_N = 44
FORMS_PAIRS = 50
FORMS_JOBS = 4  # per config: short jobs keep the speed readings close together
CLOUD_POINTS = 100
M = 256


@dataclass
class Job:
    """One CLI command with its config; ``expect`` feeds the oracle checks."""

    name: str
    command: str
    config: dict
    seed: int
    expect: dict = field(default_factory=dict)
    cloud: dict = None  # flow jobs: body, f, t and the points to transport
    config_path: str = None


def _section(prefix, desc):
    return {f"{prefix}.{k}": v for k, v in desc.items()}


def _body_cfg(name, prefix="body"):
    return _section(prefix, BODIES[name])


def _pot_cfg(name):
    return _section("potential", POTENTIALS[name])


def _make_body(name):
    desc = dict(BODIES[name])
    if desc["kind"] == "fourier":
        desc = {"kind": "fourier", "c0": desc.pop("c0"),
                "cos": {int(k[3:]): v for k, v in desc.items() if k.startswith("cos")},
                "sin": {int(k[3:]): v for k, v in desc.items() if k.startswith("sin")}}
    return geometry.make_body(desc, M=M)


def _cli_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def forms_reuse(rng, tiny=False):
    pairs = 3 if tiny else FORMS_PAIRS
    jobs = []
    for r in range(1 if tiny else FORMS_JOBS):
        for bname, pname in (("disk1", "gaussian"), ("ellipse21", "quad14"),
                             ("blob", "quartic")):
            cfg = {**_body_cfg(bname), **_pot_cfg(pname), "forms.pairs": pairs}
            jobs.append(Job(f"forms-check:{bname}+{pname}#{r}", "forms-check", cfg,
                            _cli_seed(rng)))
    return jobs


def _cloud(rng, bname, f_coeffs, t, n):
    """The flow's K and f, its time t and n points s * x(theta_j) inside K."""
    body = _make_body(bname)
    j = rng.integers(0, body.M, size=n)
    s = rng.uniform(0.1, 0.9, size=n)
    theta = body.theta_grid
    f_vals = np.full(body.M, f_coeffs["c0"])
    for k in (2, 3):
        f_vals += f_coeffs[f"cos{k}"] * np.cos(k * theta)
        f_vals += f_coeffs[f"sin{k}"] * np.sin(k * theta)
    return {"body": body, "f": forms.BoundaryField(f_vals), "t": t,
            "points": s[:, None] * body.boundary_grid[j]}


def flow_fresh(rng, tiny=False):
    jobs = []
    for bname in ("disk1", "ellipse21", "blob"):
        for pname in ("gaussian", "quad14", "quartic"):
            for psi in ("quadratic", "conjugate"):
                f = {"c0": rng.uniform(-0.1, 0.1), "cos2": rng.uniform(0.6, 1.0),
                     "sin2": rng.uniform(-0.1, 0.1), "cos3": rng.uniform(-0.1, 0.1),
                     "sin3": rng.uniform(-0.15, 0.15)}
                cfg = {**_body_cfg(bname), **_pot_cfg(pname),
                       **{f"flow.f.{k}": v for k, v in f.items()},
                       "flow.eps": 0.08, "flow.psi.kind": psi}
                if tiny:
                    cfg["flow.points"] = 5
                if psi == "quadratic":
                    b00, b11 = rng.uniform(0.15, 0.35, size=2)
                    b01 = rng.uniform(-0.1, 0.1)
                    cfg["flow.psi.B"] = (b00, b01, b01, b11)
                    cfg["flow.psi.b"] = tuple(rng.uniform(-0.1, 0.1, size=2))
                    cfg["flow.psi.c"] = rng.uniform(0.0, 0.3)
                else:
                    cfg["flow.psi.alpha"] = rng.uniform(0.3, 0.5)
                t = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.06))
                cloud = _cloud(rng, bname, f, t, 4 if tiny else CLOUD_POINTS)
                jobs.append(Job(f"flow:{bname}+{pname}+{psi}", "flow", cfg,
                                _cli_seed(rng), cloud=cloud))
    return jobs[::6] if tiny else jobs


def solve_sweep(rng, tiny=False):
    disk_power_oracle = acceptance.disk_power_oracle
    jobs = []
    for bname in BODIES:
        for pname in POTENTIALS:
            expect = {}
            if pname == "gaussian" and BODIES[bname]["kind"] == "disk":
                expect["p"] = disk_power_oracle(BODIES[bname]["radius"])
            if (bname, pname) == ("ellipse21", "quad14"):
                # u = |Sx|^2/2 with S = diag(1, 2) maps the ellipse onto B_2
                expect["p"] = disk_power_oracle(2.0)
            cfg = {**_body_cfg(bname), **_pot_cfg(pname), "pde.N": SOLVE_N}
            jobs.append(Job(f"solve:{bname}+{pname}", "solve", cfg,
                            _cli_seed(rng), expect=expect))
    for bname, pname in SPECTRAL_CONFIGS:
        cfg = {**_body_cfg(bname), **_pot_cfg(pname)}
        if tiny:
            cfg["spectral.samples"] = 20
        jobs.append(Job(f"spectral:{bname}+{pname}", "spectral", cfg, _cli_seed(rng)))
    for bname in EVEN_BODIES:
        for pname in ("gaussian", "quad14", "quad12", "quad_mixed"):
            jobs.append(Job(f"bounds:{bname}+{pname}", "bounds",
                            {**_body_cfg(bname), **_pot_cfg(pname)}, _cli_seed(rng)))
    for bname, b2name, pname in BM_CONFIGS:
        cfg = {**_body_cfg(bname), **_body_cfg(b2name, "body2"), **_pot_cfg(pname)}
        jobs.append(Job(f"bm:{bname}+{b2name}+{pname}", "bm", cfg, _cli_seed(rng)))
    radii = np.sort(rng.uniform(0.25, 3.0, size=6))
    jobs.append(Job("scan:gaussian", "scan",
                    {**_pot_cfg("gaussian"), "scan.radii": tuple(radii), "pde.N": SOLVE_N},
                    _cli_seed(rng),
                    expect={"p": [disk_power_oracle(R) for R in radii]}))
    return jobs[::8] if tiny else jobs


_BUILDERS = {"forms-reuse": forms_reuse, "flow-fresh": flow_fresh,
             "solve-sweep": solve_sweep}


def _format(value):
    if isinstance(value, (tuple, list)):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def generate(workload, seed, pass_index, workdir, tiny=False):
    """Jobs of one pass, with their config files written under ``workdir``."""
    rng = np.random.default_rng([seed, pass_index])
    jobs = _BUILDERS[workload](rng, tiny=tiny)
    os.makedirs(workdir, exist_ok=True)
    for i, job in enumerate(jobs):
        job.config_path = os.path.join(workdir, f"{i:03d}.cfg")
        text = "".join(f"{k} = {_format(v)}\n" for k, v in job.config.items())
        with open(job.config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return jobs
