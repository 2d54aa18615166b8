"""Smoke tests for the runnable scripts under scripts/."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_farrell_table_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "farrell_table.py"), "-n", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["1", "2"]
    assert rows[1][-3] == "1"  # H3 rank after two fillings
