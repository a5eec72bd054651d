"""Compare what two convexlab checkouts compute, bit for bit, in one process.

Usage, from the repository root::

    python tools/bitcheck.py PARENT CHANGE [--parts records golden perfbench]

PARENT and CHANGE are checkout roots, each holding ``src/convexlab``.  Both
packages are imported into this interpreter with ``tools/abtime.py``'s
``load``, so they share one numpy and one BLAS setting.  The parts compared:

* ``records``: the ``acceptance.run_all()`` records in the form that
  ``tests/test_acceptance.py`` pins (no wall-clock fields, floats as
  ``float.hex``), one item per criterion;
* ``golden``: the status, output and written files of each
  ``tests/golden/*/config.cfg`` command at seed 42;
* ``perfbench``: pass 0 at seed 41 of each workload of
  ``perfbench/workloads.py``: each job's status, its captured output, its
  written files and its transported point cloud.

The inputs (the exact form, the golden configs, the workloads) come from the
checkout that holds this script.  Paths that differ by construction (the
output directories and the checkout roots) are masked in captured output.
The script prints one line per difference and a count per part, and exits 1
if any difference exists, else 0.
"""

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from abtime import load

ROOT = Path(__file__).resolve().parent.parent
PARTS = ("records", "golden", "perfbench")
GOLDEN_SEED, BENCH_SEED = 42, 41


@contextlib.contextmanager
def _as_convexlab(package):
    """Let ``import convexlab`` and ``convexlab.<module>`` resolve to ``package``."""
    ours = [n for n in sys.modules if n == "convexlab" or n.startswith("convexlab.")]
    saved = {n: sys.modules.pop(n) for n in ours}
    prefix = package.__name__
    aliases = {"convexlab" + n[len(prefix):]: m for n, m in sys.modules.items()
               if n == prefix or n.startswith(prefix + ".")}
    sys.modules.update(aliases)
    try:
        yield
    finally:
        for n in aliases:
            del sys.modules[n]
        sys.modules.update(saved)


def _load_file(path, name, package):
    """Import the file ``path`` as module ``name``, with ``convexlab`` = package."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    with _as_convexlab(package):
        spec.loader.exec_module(module)
    return module


def _run(call):
    """call() with output captured: (status or traceback, captured output, result)."""
    sink, result = io.StringIO(), None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status, result = call()
    except Exception:  # a failing job is a result like any other
        status = traceback.format_exc(limit=-3)
    return status, sink.getvalue(), result


def _files(out_dir):
    """{relative path: bytes} of every file under out_dir."""
    base = Path(out_dir)
    if not base.is_dir():
        return {}
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def _job_items(key, status, output, files, masks):
    for path, mask in masks:
        status = status.replace(path, mask) if isinstance(status, str) else status
        output = output.replace(path, mask)
    items = {f"{key} status": repr(status).encode(), f"{key} output": output.encode()}
    items.update({f"{key} {name}": data for name, data in files.items()})
    return items


def records(package, checkout, tmp):
    exact = _load_file(ROOT / "tests" / "test_acceptance.py",
                       f"{package.__name__}_exact", package)
    recs = {rec["id"]: rec for rec in package.acceptance.run_all()}
    return {f"criterion {rec['id']}": repr(rec).encode()
            for rec in exact.exact_records(recs)}


def golden(package, checkout, tmp):
    items = {}
    for case in sorted(p for p in (ROOT / "tests" / "golden").iterdir() if p.is_dir()):
        out_dir = os.path.join(tmp, case.name)
        status, output, _ = _run(lambda: (package.cli.run(
            case.name, str(case / "config.cfg"), out_dir, seed=GOLDEN_SEED), None))
        items.update(_job_items(case.name, status, output, _files(out_dir),
                                ((tmp, "<out>"), (checkout, "<checkout>"))))
    return items


def perfbench(package, checkout, tmp):
    workloads = _load_file(ROOT / "perfbench" / "workloads.py",
                           f"{package.__name__}_workloads", package)
    items = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.generate(workload, BENCH_SEED, 0, os.path.join(tmp, workload))
        for i, job in enumerate(jobs):
            out_dir = os.path.join(tmp, workload, f"{i:03d}")

            def call(job=job, out_dir=out_dir):
                status = package.cli.run(job.command, job.config_path, out_dir, seed=job.seed)
                c = job.cloud
                moved = None if c is None else package.flow.vector_field_X(
                    c["body"], c["f"], c["t"], c["points"])
                return status, moved

            status, output, moved = _run(call)
            key = f"{workload} {i:03d} {job.name}"
            items.update(_job_items(key, status, output, _files(out_dir),
                                    ((tmp, "<out>"), (checkout, "<checkout>"))))
            if moved is not None:
                moved = np.asarray(moved)
                items[f"{key} cloud"] = f"{moved.dtype}{moved.shape}".encode() + moved.tobytes()
    return items


_PARTS = {"records": records, "golden": golden, "perfbench": perfbench}


def compare(parent, change, parts=PARTS):
    """{part: (number of items, [difference lines])} of the two checkouts."""
    sides = [(str(Path(root).resolve()), load(root, name))
             for root, name in ((parent, "convexlab_parent"), (change, "convexlab_change"))]
    out = {}
    for part in parts:
        got = []
        for checkout, package in sides:
            with tempfile.TemporaryDirectory() as tmp:
                got.append(_PARTS[part](package, checkout, tmp))
        a, b = got
        lines = [f"{part}: only in PARENT: {k}" for k in a if k not in b]
        lines += [f"{part}: only in CHANGE: {k}" for k in b if k not in a]
        lines += [f"{part}: differs: {k}" for k in a if k in b and a[k] != b[k]]
        out[part] = (len(set(a) | set(b)), lines)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--parts", nargs="+", choices=PARTS, default=list(PARTS))
    args = parser.parse_args(argv)
    results = compare(args.parent, args.change, args.parts)
    for part, (count, lines) in results.items():
        for line in lines:
            print(line)
        print(f"{part}: {len(lines)} of {count} items differ")
    return 1 if any(lines for _, lines in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
