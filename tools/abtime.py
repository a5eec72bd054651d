"""Time one call of two convexlab checkouts side by side, in one process.

Usage, from the repository root::

    python tools/abtime.py PARENT CHANGE --setup SETUP --stmt STMT [--reps 30]

PARENT and CHANGE are checkout roots, each holding ``src/convexlab``.  Both
packages are imported into this interpreter under distinct names, so they
share its numpy, its BLAS, its allocator and the host's state of the moment.
SETUP runs once per checkout (untimed) and STMT is timed, each with ``cl``
bound to that checkout's package and ``np`` to numpy; SETUP's names are
visible to STMT.  Each repetition runs STMT once on either side, parent
first on even repetitions, so a drift of the host's speed falls on both.
The script prints the median of the per-repetition ratios change/parent,
with its quartiles, the median times and, on a fourth line, the median count
of minor page faults (``ru_minflt``) per repetition on either side.  For
example, the Newton-backed flow potential on the blob's 8,192 quadrature
nodes::

    python tools/abtime.py ../parent . --reps 30 \\
        --setup "u = cl.suite.standard_potentials()['quartic']
    x = cl.quad.interior_nodes(cl.suite.standard_bodies()['blob'])[0].reshape(-1, 2)
    psi = cl.measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])" \\
        --stmt "cl.measure._flow_newton(u, psi, 0.05, x)"

A whole benchmark pass is one statement too.  Pass 0 of perfbench's
solve-sweep at seed 41, its 68 ``cli.run`` jobs writing their files into a
temporary directory, on config files that this checkout's
``perfbench/workloads.py`` writes once per side::

    python tools/abtime.py ../parent . --reps 30 \\
        --setup "import contextlib, io, sys, tempfile
    sys.path[:0] = ['perfbench', 'src']
    import workloads
    out = tempfile.mkdtemp()
    jobs = workloads.generate('solve-sweep', 41, 0, out)" \\
        --stmt "with contextlib.redirect_stdout(io.StringIO()):
        for i, job in enumerate(jobs):
            cl.cli.run(job.command, job.config_path, f'{out}/{i:03d}', seed=job.seed)"

Such a pass carries the CLI's fixed cost per command (config, report, file
writes) with its numerical work, which a kernel statement leaves out.

Process-level timings of two checkouts (perfbench pairs) also carry offsets
that the code under test does not explain; interleaving within one process
leaves those out.  For the same reason a process-global setting, such as the
allocator thresholds that ``cli.run`` sets through ``mallopt``, applies to
both checkouts at once: this script and ``tools/bitcheck.py`` cannot compare
a change to one, and only perfbench runs in separate processes can.
"""

import argparse
import importlib.util
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load(root, name):
    """Import ``root/src/convexlab`` and all its modules as the package ``name``."""
    init = Path(root).resolve() / "src" / "convexlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in sorted(init.parent.glob("*.py")):  # cl.cli, cl.suite, ... as well
        if module.stem not in ("__init__", "__main__"):
            importlib.import_module(f"{name}.{module.stem}")
    return package


def _clock(code, namespace):
    """(seconds, minor page faults) of one run of code."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    exec(code, namespace)
    elapsed = time.perf_counter() - start
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def compare(parent, change, setup, stmt, reps):
    """Per-repetition (seconds, minor faults) of ``stmt``, as pairs (parent, change)."""
    code = compile(stmt, "<stmt>", "exec")
    spaces = []
    for root, name in ((parent, "convexlab_parent"), (change, "convexlab_change")):
        namespace = {"cl": load(root, name), "np": np}
        exec(setup, namespace)
        exec(code, namespace)  # warm-up, untimed
        spaces.append(namespace)
    runs = []
    for k in range(reps):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        pair = [None, None]
        for side in order:
            pair[side] = _clock(code, spaces[side])
        runs.append(tuple(pair))
    return runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--setup", default="")
    parser.add_argument("--stmt", required=True)
    parser.add_argument("--reps", type=int, default=30)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    runs = compare(args.parent, args.change, args.setup, args.stmt, args.reps)
    times = [(a[0], b[0]) for a, b in runs]
    ratios = [b / a for a, b in times]
    q = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"parent median {statistics.median(a for a, _ in times):.6g} s, "
          f"change median {statistics.median(b for _, b in times):.6g} s "
          f"({args.reps} reps)")
    print(f"change better in {sum(r < 1.0 for r in ratios)}/{len(ratios)} reps")
    print(f"median ratio change/parent: {statistics.median(ratios):.4f} "
          f"(quartiles {q[0]:.4f}, {q[2]:.4f})")
    print(f"minor faults per rep: parent median {statistics.median(a[1] for a, _ in runs):g}, "
          f"change median {statistics.median(b[1] for _, b in runs):g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
