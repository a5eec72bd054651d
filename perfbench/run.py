"""Benchmark of the convexlab command line, end to end and per layer.

    python3 perfbench/run.py --workload forms-reuse --seed 1 --seconds 20 --trace 0

Run from the repository root.  A run imports convexlab from ``src/`` and
calls ``convexlab.cli.run`` in-process on config files generated from the
seed (see ``workloads.py``).  It repeats passes over the workload's jobs
until ``--seconds`` have gone by; pass k's inputs come from (seed, k).
Every job's outputs are checked by ``oracles.py`` outside the timed region.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median time of
a pass over all jobs; ``setup_s``, the median over several repetitions of a
fresh interpreter importing ``convexlab.cli`` plus generating one pass of
inputs; and ``peak_rss_mb``.  Both times are given at reference speed (see
``reference_time``).  ``--trace 1`` alternates untraced and traced passes on
the same inputs, checks that both write identical reports, and reports the
per-layer metrics of the median traced pass (see ``spans.py``); its spans
are written to ``.perfbench-out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the workload's fail ratio.  The lines before it record the
environment.  BLAS threads are left at their default on purpose.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPS = 7

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS + ("bench",)},
    "quad.nodes_calls": "count", "quad.mu_calls": "count",
    "quad.nodes_repeat_share": "ratio",
    "forms.calls": "count",
    "measure.points": "count", "measure.hmu_calls": "count",
    "spectral.calls": "count",
    "geometry.gauge_calls": "count", "geometry.bodies_built": "count",
    "flow.marginal_calls": "count", "flow.marginal_rejected": "count",
    "pde.assemble_calls": "count", "pde.assemble_ms_p50": "ms",
    "analysis.calls": "count",
    "cli.report_bytes": "bytes",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}

# The speed of a small shared host drifts between states that last seconds
# to tens of seconds and differ by up to 1.5x, more than any useful bound.
# So every timed interval sits between two timings of a fixed reference
# kernel (the interpreter, numpy on quadrature-sized arrays and a small
# Cholesky: the mix the workloads run), and the end-to-end times are rescaled
# to the speed at which that kernel takes REF_SECONDS, its time in the fast
# state of a 2-vCPU 2.1 GHz host.
REF_SECONDS = 4.6e-4
_REF_X = np.linspace(0.0, 1.0, 4096)
_REF_A = np.eye(48) * 48.0 + np.cos(np.add.outer(np.arange(48.0), np.arange(48.0)))


def _reference_kernel():
    s = 0.0
    for i in range(4000):
        s += i * 0.5
    for _ in range(16):
        s += float(np.exp(-_REF_X).sum())
    for _ in range(6):
        s += float(np.linalg.cholesky(_REF_A @ _REF_A)[-1, -1])
    return s


def reference_time():
    """Best of three timings of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def _scale(seconds, ref_before, ref_after):
    """Seconds rescaled to reference speed."""
    return seconds * 2.0 * REF_SECONDS / (ref_before + ref_after)


def _require_source():
    """Put the checkout's ``src/`` first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "convexlab", "cli.py")):
        raise SystemExit(f"perfbench: no convexlab sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- environment ----------------------------------------------------------------


def _git_commit():
    """Commit of the checkout read from ``.git``; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded; None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        except OSError:
            continue
        if fn is not None:
            return int(fn())
    return None


def environment():
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "openblas_threads": _openblas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": _git_commit()}


# -- one pass over the jobs -------------------------------------------------------


def _run_job(cli, flow, job, out_dir):
    """Run one job; returns (status, transported cloud, captured output)."""
    sink = io.StringIO()
    moved = None
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = cli.run(job.command, job.config_path, out_dir, seed=job.seed)
            if job.cloud is not None:
                c = job.cloud
                moved = flow.vector_field_X(c["body"], c["f"], c["t"], c["points"])
    except Exception:  # a failing job is counted and reported; the run goes on
        status = traceback.format_exc(limit=-3)
    return status, moved, sink.getvalue()


def run_pass(mods, jobs, out_dir, tracer=None):
    """Time the jobs of one pass, each between two reference-speed readings.

    Returns (seconds, seconds at reference speed, per-job records).  With a
    tracer, each job is one root span "bench.job".
    """
    records, raw, scaled = [], 0.0, 0.0
    ref = reference_time()
    for i, job in enumerate(jobs):
        root = tracer.enter("bench.job") if tracer is not None else None
        t0 = time.perf_counter()
        records.append(_run_job(mods["cli"], mods["flow"], job,
                                os.path.join(out_dir, f"{i:03d}")))
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit(root)
        ref_after = reference_time()
        raw += dt
        scaled += _scale(dt, ref, ref_after)
        ref = ref_after
    return raw, scaled, records


def check_pass(oracles, jobs, records, out_dir):
    """Oracle mismatches of a pass as {job name: [messages]}."""
    bad = {}
    for i, (job, (status, moved, output)) in enumerate(zip(jobs, records)):
        report = None
        if status == 0:
            try:
                with open(os.path.join(out_dir, f"{i:03d}", "report.json"),
                          encoding="utf-8") as fh:
                    report = json.load(fh)
            except (OSError, ValueError) as exc:
                status = f"unreadable report: {exc}"
        msgs = oracles.check(job, status, report, moved)
        if msgs:
            bad[job.name] = msgs + ([output.strip()] if output.strip() else [])
    return bad


def _report_bytes(out_dir, jobs):
    """Bytes of the reports a pass wrote (a missing one is an oracle failure)."""
    paths = [os.path.join(out_dir, f"{i:03d}", "report.json") for i in range(len(jobs))]
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _identical_reports(out_a, out_b, jobs):
    """Jobs whose report.json differs between two passes on the same inputs."""
    differ = []
    for i, job in enumerate(jobs):
        blobs = []
        for d in (out_a, out_b):
            try:
                with open(os.path.join(d, f"{i:03d}", "report.json"), "rb") as fh:
                    blobs.append(fh.read())
            except OSError:
                break  # a missing report is already an oracle failure
        if len(blobs) == 2 and blobs[0] != blobs[1]:
            differ.append(job.name)
    return differ


# -- a run -----------------------------------------------------------------------


def _load():
    _require_source()
    import oracles
    import workloads
    from convexlab import cli, flow
    return {"cli": cli, "flow": flow, "oracles": oracles, "workloads": workloads}


# A fresh interpreter that has numpy (needed by the reference kernel) times
# its import of the CLI between two reference-speed readings of its own, so
# that the reading is taken on whichever CPU the child runs.
_IMPORT_PROBE = """
import json, time, run
run.reference_time()  # warms up numpy and the BLAS threads
ref = run.reference_time()
t0 = time.perf_counter()
import convexlab.cli
t1 = time.perf_counter()
print(json.dumps([t1 - t0, ref, run.reference_time()]))
"""


def measure_setup(workload, seed, workdir, reps, tiny=False):
    """Median of reps x (fresh import of convexlab.cli + one pass of inputs).

    Returns (seconds, seconds at reference speed).
    """
    mods = _load()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    raw, scaled = [], []
    for r in range(reps):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                               check=True, timeout=120, capture_output=True, text=True)
        imp, imp_ref0, imp_ref1 = json.loads(probe.stdout.splitlines()[-1])
        ref = reference_time()
        t0 = time.perf_counter()
        mods["workloads"].generate(workload, seed, 0, os.path.join(workdir, f"s{r}"),
                                   tiny=tiny)
        gen = time.perf_counter() - t0
        raw.append(imp + gen)
        scaled.append(_scale(imp, imp_ref0, imp_ref1) + _scale(gen, ref, reference_time()))
    return statistics.median(raw), statistics.median(scaled)


def measure(workload, seed, seconds, trace, tiny=False, log=None):
    """One benchmark run; returns the result object printed on the last line."""
    mods = _load()
    wl, oracles = mods["workloads"], mods["oracles"]
    if workload not in wl.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    log = log or (lambda msg: None)
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    failures, attempted = {}, 0
    untraced, traced = [], []
    try:
        if not trace:
            setup_raw, setup_s = measure_setup(workload, seed, os.path.join(tmp, "setup"),
                                               1 if tiny else SETUP_REPS, tiny=tiny)
        tracer = spans.Tracer() if trace else None
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            pdir = os.path.join(tmp, f"pass{k}")
            jobs = wl.generate(workload, seed, k, os.path.join(pdir, "cfg"), tiny=tiny)
            out_u = os.path.join(pdir, "untraced")
            wall, wall_ref, records = run_pass(mods, jobs, out_u)
            untraced.append((wall, wall_ref))
            attempted += len(jobs)
            failures.update({f"pass {k} {n}": m for n, m in
                             check_pass(oracles, jobs, records, out_u).items()})
            if trace:
                out_t = os.path.join(pdir, "traced")
                tracer.install()
                try:
                    wall_t, wall_t_ref, records = run_pass(mods, jobs, out_t, tracer)
                finally:
                    tracer.uninstall()
                attempted += len(jobs)
                bad = check_pass(oracles, jobs, records, out_t)
                for name in _identical_reports(out_u, out_t, jobs):
                    bad.setdefault(name, []).append("traced report differs from untraced")
                failures.update({f"pass {k} traced {n}": m for n, m in bad.items()})
                traced.append((wall_t, wall_t_ref, tracer.take(), _report_bytes(out_t, jobs)))
            shutil.rmtree(pdir)
            k += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for name, msgs in failures.items():
        log(f"FAIL {name}: " + " | ".join(msgs))
    log(f"{workload} seed {seed}: {k} passes, fail_ratio {len(failures)}/{attempted}; "
        f"untraced pass seconds {[round(w, 3) for w, _ in untraced]}, "
        f"at reference speed {[round(w, 3) for _, w in untraced]}")
    if trace:
        metrics = _layer_metrics(workload, traced, untraced)
        units = PER_LAYER
    else:
        log(f"setup: {setup_raw:.4f} s, {setup_s:.4f} s at reference speed")
        metrics = {"setup_s": setup_s, "wall_s": statistics.median(w for _, w in untraced),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()}}


def _layer_metrics(workload, traced, untraced):
    """Per-layer metrics of the median traced pass; writes its spans.

    The tracing overhead compares traced and untraced passes at reference
    speed, so that a change of host speed between them does not show.
    """
    order = sorted(range(len(traced)), key=lambda i: traced[i][0])
    _, _, recorded, report_bytes = traced[order[(len(order) - 1) // 2]]
    out = spans.summarize(recorded)
    root = recorded["parent"] < 0
    out["trace.wall_s"] = float((recorded["end"][root] - recorded["start"][root]).sum())
    out["trace.overhead_s"] = (statistics.median(t[1] for t in traced)
                               - statistics.median(w for _, w in untraced))
    out["cli.report_bytes"] = report_bytes
    np.savez_compressed(os.path.join(OUT, f"spans-{workload}.npz"),
                        names=np.array(recorded["names"]),
                        **{k: recorded[k] for k in ("name", "parent", "start", "end", "raised")})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_source()
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     log=lambda msg: print(msg, file=sys.stderr, flush=True))
    for name, m in result["metrics"].items():
        print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':<26} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
