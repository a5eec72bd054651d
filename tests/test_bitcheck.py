"""tools/bitcheck.py compares what two checkouts compute, item by item.

It runs in a fresh interpreter, since it imports the package a second and a
third time under names of its own.  Only the golden configs are compared
here; the records and the perfbench pass take several seconds more.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _bitcheck(parent, change, cwd):
    return subprocess.run([sys.executable, str(ROOT / "tools" / "bitcheck.py"), str(parent),
                           str(change), "--parts", "golden"],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_bitcheck_finds_no_difference_between_a_checkout_and_itself(tmp_path):
    done = _bitcheck(ROOT, ROOT, tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    # per config: its status, its captured output and each file it wrote
    items = sum(2 + sum(p.name != "config.cfg" for p in case.iterdir())
                for case in GOLDEN.iterdir() if case.is_dir())
    assert done.stdout.splitlines() == [f"golden: 0 of {items} items differ"]


def test_bitcheck_reports_each_differing_file(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    pde = tmp_path / "src" / "convexlab" / "pde.py"
    line = "    m = E @ _boundary_measure(body, u) * w_theta\n"
    text = pde.read_text()
    assert line in text
    pde.write_text(text.replace(line, line.rstrip() + " * (1 + 2.0**-45)\n"))
    done = _bitcheck(ROOT, tmp_path, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert "golden: differs: solve report.json" in lines
    assert "golden: differs: forms-check report.json" not in lines
    assert re.fullmatch(r"golden: [1-9]\d* of \d+ items differ", lines[-1])
