"""scipy.linalg stays off the import path until the first Galerkin solve.

Importing scipy.linalg is most of a CLI start.  forms-check and flow never
call LAPACK, so they must never load it; solve must, on its first solve.  Each case runs in a fresh interpreter, since this test process
has loaded scipy.linalg long before.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def _cli_run(command):
    config = ROOT / "tests" / "golden" / command / "config.cfg"
    return f"from convexlab import cli\ncli.run({command!r}, {str(config)!r}, out_dir='out')"


@pytest.mark.parametrize("statement, loads", [
    ("import convexlab", False),
    ("import convexlab.cli", False),
    (_cli_run("forms-check"), False),
    (_cli_run("flow"), False),
    (_cli_run("solve"), True),
], ids=["import-convexlab", "import-cli", "forms-check", "flow", "solve"])
def test_scipy_linalg_loads_on_the_first_galerkin_solve(tmp_path, statement, loads):
    code = f"import sys\n{statement}\nprint('scipy.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == str(loads)
