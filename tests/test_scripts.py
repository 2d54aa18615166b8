"""Smoke tests for the runnable scripts under scripts/."""
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from coxcert import models

ROOT = Path(__file__).resolve().parents[1]
FARRELL_TABLE = str(ROOT / "scripts" / "farrell_table.py")


def run_farrell_table(*argv, limit=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if limit is not None:
        env["COXCERT_SNF_CELL_LIMIT"] = limit
    return subprocess.run(
        [sys.executable, FARRELL_TABLE, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_farrell_table_runs():
    out = run_farrell_table("-n", "2")
    assert out.returncode == 0
    rows = [line.split() for line in out.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["1", "2"]
    assert rows[1][-3] == "1"  # H3 rank after two fillings


def test_farrell_table_over_the_cell_limit_is_skipped():
    """A cap hit while a model is reduced ends the table with one line and
    exit 0, after the rows already computed, with no traceback."""
    out = run_farrell_table("-n", "3", limit="5000")
    assert (out.returncode, out.stderr) == (0, "")
    lines = out.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["1", "2"]
    assert lines[-1] == "skipped: 5238 or more boundary entries exceed the cap 5000"


def test_farrell_table_checks_the_model_bound_before_building(monkeypatch, capsys):
    """The fourth prefix, on the 6 x 6 grid, has at least 36 * 36 + 4 * (36 *
    36 + 12) = 6,528 cells: over a limit of 6,400 it is refused before it is
    built, while the first three models (at most 6,354 boundary entries) are
    built and reduced."""
    built = []
    build = models.farrell_quotient

    def spy(slopes):
        built.append(len(slopes))
        return build(slopes)

    monkeypatch.setattr(models, "farrell_quotient", spy)
    monkeypatch.setenv("COXCERT_SNF_CELL_LIMIT", "6400")
    monkeypatch.setattr(sys, "argv", [FARRELL_TABLE, "-n", "5"])
    runpy.run_path(FARRELL_TABLE, run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert built == [1, 2, 3]
    assert len(lines) == 5
    assert lines[-1] == (
        "skipped: 6528 or more cells in the model of 4 slopes on the 6 x 6 grid"
        " exceed the cap 6400"
    )


@pytest.mark.parametrize("n", ["0", "-3"])
def test_farrell_table_rejects_a_count_below_one(n):
    out = run_farrell_table("-n", n)
    assert out.returncode == 2
    assert "must be >= 1" in out.stderr
    assert out.stdout == ""
