"""cli.run keeps freed memory in the process's heap, set once through glibc's mallopt.

With glibc's defaults every flow solve maps its 128-256 KB temporaries afresh
and faults their pages in again; with the setting, warm solves reuse the heap.
"""

import ctypes
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from convexlab import cli, measure, quad, suite
from convexlab.errors import ConfigError

SRC = Path(__file__).parents[1] / "src"


def _has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.fixture
def fresh_cache():
    cli._keep_heap.cache_clear()
    yield
    cli._keep_heap.cache_clear()


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_warm_flow_solves_reuse_the_heap_without_page_faults(fresh_cache):
    resource = pytest.importorskip("resource")
    cli._keep_heap()
    u = suite.standard_potentials()["quartic"]
    x = quad.interior_nodes(suite.standard_bodies()["blob"])[0].reshape(-1, 2)
    psi = measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]], b=[0.1, -0.05])
    assert x.shape == (8192, 2)
    measure._flow_newton(u, psi, 0.05, x)  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        measure._flow_newton(u, psi, 0.05, x)
    # about 2,000 faults with glibc's defaults
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


def _raise(exc):
    def cdll(name):
        raise exc
    return cdll


@pytest.mark.parametrize("cdll", [lambda name: object(), _raise(OSError("no libc")),
                                  _raise(TypeError("no handle"))],
                         ids=["no-mallopt", "no-library", "no-handle"])
def test_without_mallopt_the_setting_does_nothing(fresh_cache, monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._keep_heap() is None


def test_run_sets_the_allocator_once_and_import_does_not(fresh_cache, monkeypatch):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    for _ in range(2):  # run sets it before refusing the command
        with pytest.raises(ConfigError, match="unknown command"):
            cli.run("nope")
    cli._keep_heap()
    assert calls == [(-3, 16 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    probe = "import convexlab.cli as c; print(c._keep_heap.cache_info().misses)"
    imported = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60, check=True)
    assert imported.stdout.strip() == "0"
