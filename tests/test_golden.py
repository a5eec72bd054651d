"""Byte-for-byte regression pins on the CLI's written artifacts.

Each directory under ``tests/golden`` holds one command's ``config.cfg`` and
the ``report.json`` and CSV files that command wrote with seed 42.  A change
that keeps the numerical program the same keeps every one of these bytes.

The bytes hold at the OpenBLAS thread count that wrote them, recorded in
``tests/golden/blas_threads.txt``: ``pde.assemble`` forms its Gram products
with gemm, which rounds one way on a single thread and another on several.
So the seven commands run in one fresh interpreter at that count, and this
process compares what they wrote.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())

_RUN = """
import json, sys
from pathlib import Path
from convexlab import cli
golden, out = Path(sys.argv[1]), Path(sys.argv[2])
status = {c: cli.run(c, str(golden / c / "config.cfg"), out_dir=str(out / c), seed=42)
          for c in sys.argv[3:]}
(out / "status.json").write_text(json.dumps(status))
"""


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Each command's exit status and written files, from one run at the recorded count."""
    out = tmp_path_factory.mktemp("golden")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "OPENBLAS_NUM_THREADS": (GOLDEN / "blas_threads.txt").read_text().strip()}
    done = subprocess.run([sys.executable, "-c", _RUN, str(GOLDEN), str(out), *COMMANDS],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    status = json.loads((out / "status.json").read_text())
    return {c: (status[c], {p.name: p.read_bytes() for p in (out / c).iterdir()})
            for c in COMMANDS}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(written, command):
    case = GOLDEN / command
    expected = {p.name: p.read_bytes() for p in case.iterdir() if p.name != "config.cfg"}
    status, files = written[command]
    assert status == (0 if json.loads(expected["report.json"])["passed"] else 1)
    assert sorted(files) == sorted(expected)
    for name, data in expected.items():
        assert files[name] == data, f"{command}/{name} differs from the golden copy"
