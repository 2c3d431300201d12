"""Each demo script runs to completion in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent

DEMOS = [
    "01_worked_example.py",
    "02_confirmation_depth_curves.py",
    "03_budget_convergence.py",
    "04_model_vs_simulation.py",
    "05_error_attribution.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
