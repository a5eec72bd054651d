"""tools/abtime.py imports two checkouts side by side and prints their time ratio.

It runs in a fresh interpreter, since it imports the package a second and a
third time under names of its own.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_abtime_times_one_call_of_two_checkouts(tmp_path):
    setup = ("u = cl.measure.even_quartic_potential(0.1)\n"
             "psi = cl.measure.QuadraticPerturbation(B=[[0.3, 0.1], [0.1, 0.2]])\n"
             "x = np.linspace(-0.5, 0.5, 10).reshape(5, 2)")
    stmt = ("val = cl.measure._flow_newton(u, psi, 0.05, x, hess=False)[0]\n"
            "assert cl.__name__ in ('convexlab_parent', 'convexlab_change')")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "abtime.py"), str(ROOT),
                           str(ROOT), "--reps", "2", "--setup", setup, "--stmt", stmt],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"parent median \S+ s, change median \S+ s \(2 reps\)",
                        lines[0])
    assert re.fullmatch(r"change better in [0-2]/2 reps", lines[1])
    ratio = re.fullmatch(r"median ratio change/parent: (\S+) \(quartiles \S+, \S+\)", lines[2])
    assert ratio and float(ratio.group(1)) > 0.0
    faults = re.fullmatch(r"minor faults per rep: parent median (\S+), change median (\S+)",
                          lines[3])
    assert faults and all(float(n) >= 0.0 for n in faults.groups())
