"""The demo scripts run end to end against the current package."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import iqselmer

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(iqselmer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(DEMOS / script), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_demos_run():
    # each rank_table cell asserts the pipeline against the closed form
    table = _run_demo("rank_table.py", "--bmax", "6")
    assert table.returncode == 0, table.stderr
    rows = table.stdout.splitlines()
    assert len(rows) == 13  # header and b = +-1..+-6
    # a rank in every cell, b = +-3 on D = -3 (ramified) included
    assert all(cell.isdigit() for row in rows[1:] for cell in row.split()[1:])

    survey = _run_demo("congruent_survey.py", "--disc", "-3", "--max", "100")
    assert survey.returncode == 0, survey.stderr
    assert (
        "n=82: NotCongruentQ(Bastien), CongruentConditionalK assuming "
        "Sha(E_n/K)[2^∞] finite, Selmer rank 3"
    ) in [line.strip() for line in survey.stdout.splitlines()]
