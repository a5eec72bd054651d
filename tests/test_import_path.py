"""scipy.linalg and the Galerkin basis stay off the import path until the first solve.

Importing scipy.linalg is most of a CLI start.  forms-check and flow never
call LAPACK, so they must never load it; solve must, on its first solve.  The
per-(N, M) Galerkin basis is built on first use too, never on import.  Each
case runs in a fresh interpreter, since this test process has loaded
scipy.linalg and built bases long before.
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
    assert _last_word(tmp_path, code) == str(loads)


@pytest.mark.parametrize("statement, bases", [
    ("import convexlab.cli", 0),
    (_cli_run("solve"), 2),  # pde.N and pde.N + 4
], ids=["import-cli", "solve"])
def test_galerkin_basis_is_built_on_the_first_assembly(tmp_path, statement, bases):
    code = (f"{statement}\nfrom convexlab import spectral\n"
            "print(spectral._grid_basis.cache_info().currsize)")
    assert _last_word(tmp_path, code) == str(bases)


def _last_word(tmp_path, code):
    """The last word code prints in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()[-1]
