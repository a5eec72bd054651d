"""Byte-for-byte regression pins on the CLI's written artifacts.

Each directory under ``tests/golden`` holds one command's ``config.cfg`` and
the ``report.json`` and CSV files that command wrote with seed 42.  A change
that keeps the numerical program the same keeps every one of these bytes.
"""

import json
from pathlib import Path

import pytest

from convexlab import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()))
def test_cli_output_matches_golden(tmp_path, command):
    case = GOLDEN / command
    expected = {p.name: p.read_bytes() for p in case.iterdir() if p.name != "config.cfg"}
    status = cli.run(command, str(case / "config.cfg"), out_dir=str(tmp_path), seed=42)
    assert status == (0 if json.loads(expected["report.json"])["passed"] else 1)
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(written) == sorted(expected)
    for name, data in expected.items():
        assert written[name] == data, f"{command}/{name} differs from the golden copy"
