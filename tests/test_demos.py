"""The demo scripts run to completion (smoke test).

06_continuum_limit.py is left out: it reruns the criterion-9 study, which
test_acceptance.py already covers.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraclat

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_mittag_leffler_propagator.py",
    "02_dispersion_symbol_tour.py",
    "03_filtering_and_norms.py",
    "04_memory_solver.py",
    "05_smoothing_dichotomy.py",
])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(fraclat.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
