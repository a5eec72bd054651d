"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._require_source()

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from convexlab import forms, pde, quad, suite  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    result = run.measure(workload, seed=5, seconds=0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if trace:
        own = sum(result["metrics"][f"{layer}.self_s"]["value"]
                  for layer in spans.LAYERS + ("bench",))
        assert own == pytest.approx(result["metrics"]["trace.wall_s"]["value"], rel=1e-9)


def _tiny_job_and_report(tmp_path, workload, command):
    mods = run._load()
    jobs = workloads.generate(workload, 3, 0, str(tmp_path / "cfg"), tiny=True)
    i, job = next((i, j) for i, j in enumerate(jobs) if j.command == command)
    out = str(tmp_path / "out")
    status, moved, _ = run._run_job(mods["cli"], mods["flow"], job, out)
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert oracles.check(job, status, report, moved) == []
    return job, status, report, moved


def test_oracle_counts_a_corrupted_forms_report(tmp_path):
    job, status, report, _ = _tiny_job_and_report(tmp_path, "forms-reuse", "forms-check")
    report["results"]["min_relative_mean_slack"] = -1e-3
    assert oracles.check(job, status, report)


def test_oracle_counts_a_corrupted_power(tmp_path):
    job, status, report, _ = _tiny_job_and_report(tmp_path, "solve-sweep", "solve")
    assert "p" in job.expect
    report["results"]["p"] += 1e-6
    assert oracles.check(job, status, report)


def test_oracle_counts_a_corrupted_flow_map(tmp_path):
    job, status, report, moved = _tiny_job_and_report(tmp_path, "flow-fresh", "flow")
    assert oracles.check(job, status, report, moved * (1.0 + 1e-4))
    report["results"]["I2_fd_error"] = 1e-3
    assert oracles.check(job, status, report, moved)


def test_tracer_sees_calls_between_layers_and_restores_them():
    body, u = suite.standard_bodies()["ellipse21"], suite.standard_potentials()["quad14"]
    originals = (forms.interior_integral, pde.interior_nodes, quad.interior_nodes)
    tracer = spans.Tracer()
    tracer.install()
    rng = np.random.default_rng(0)
    try:
        forms.check_mean_form(body, u, suite.random_boundary_field(rng, body.M),
                              suite.random_interior_field(rng))
    finally:
        tracer.uninstall()
    recorded = tracer.take()
    assert (forms.interior_integral, pde.interior_nodes, quad.interior_nodes) == originals
    names = [recorded["names"][i] for i in recorded["name"]]
    parents = [names[p] if p >= 0 else None for p in recorded["parent"]]
    edges = set(zip(names, parents))
    assert ("quad.interior_integral", "forms.form_I") in edges
    assert ("quad.interior_nodes", "forms.form_BL") in edges
    assert ("measure.Potential.weight", "quad.interior_integral") in edges
    summary = spans.summarize(recorded)
    assert summary["measure.points"] > 0
    assert summary["forms.self_s"] > 0 and summary["quad.self_s"] > 0
