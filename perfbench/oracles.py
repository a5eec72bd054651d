"""Oracle checks on the outputs of one job, run outside the timed region.

Each check returns a list of mismatch messages; an empty list means the job's
outputs are correct.  The checks are independent of the CLI's own
assertions: they read the written ``report.json`` and recompute what they
can from closed forms (the Gaussian-disk power) and from geometry (the flow
map preserves the gauge).
"""

import numpy as np

from convexlab import geometry

SLACK_FLOOR = -1e-9
POWER_TOL = 1e-7
FD1_TOL, FD2_TOL = 1e-6, 1e-4
CROSS_TOL = 1e-7
GAUGE_TOL = 1e-7


def _forms_check(job, results):
    out = []
    for key in ("min_relative_mean_slack", "min_relative_mult_slack"):
        if not results[key] >= SLACK_FLOOR:
            out.append(f"{key} = {results[key]!r} < {SLACK_FLOOR}")
    return out


def _power(job, results):
    out = []
    want = job.expect.get("p")
    if want is None:
        return out
    got = results["p"]
    if np.ndim(want) == 0:
        want, got = [want], [got]
    if len(got) != len(want):
        return [f"{len(got)} powers reported, {len(want)} expected"]
    for i, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= POWER_TOL:
            out.append(f"p[{i}] = {g!r} differs from the disk closed form {w!r}")
    return out


def _flow(job, results, transported):
    out = []
    if not results["I1_fd_error"] <= FD1_TOL:
        out.append(f"I'(0) finite-difference error {results['I1_fd_error']!r}")
    if not results["I2_fd_error"] <= FD2_TOL:
        out.append(f"I''(0) finite-difference error {results['I2_fd_error']!r}")
    if not results["cross_mismatch"] <= CROSS_TOL * results["cross_scale"]:
        out.append(f"cross identity mismatch {results['cross_mismatch']!r}")
    out += _transport(job.cloud, transported)
    return out


def _transport(cloud, moved):
    """gauge(K_t, X_t(x)) = gauge(K, x) on every point of the cloud."""
    moved = np.asarray(moved, dtype=float)
    if moved.shape != cloud["points"].shape:
        return [f"transported cloud has shape {moved.shape}"]
    body_t = geometry.wulff_perturb(cloud["body"], cloud["f"], cloud["t"])
    err = max(abs(geometry.gauge(body_t, y) - geometry.gauge(cloud["body"], x))
              for x, y in zip(cloud["points"], moved))
    if not err <= GAUGE_TOL:
        return [f"flow map moves the gauge by {err!r}"]
    return []


def check(job, status, report, transported=None):
    """Mismatches of one job: exit status, the report's verdict and the oracles."""
    if status != 0:
        return [f"exit status {status}"]
    out = [] if report.get("passed") is True else ["report does not pass"]
    results = report["results"]
    if job.command == "forms-check":
        out += _forms_check(job, results)
    elif job.command in ("solve", "scan"):
        out += _power(job, results)
    elif job.command == "flow":
        out += _flow(job, results, transported)
    return out
