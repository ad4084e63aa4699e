"""The experiment scripts run end to end on small inputs.

The scripts call the library directly, so a signature change that breaks
one of them shows up here rather than at the next sweep.
"""

import os
import subprocess
import sys

import pytest

import linecount

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.mark.parametrize("script, args", [
    ("stratum_scaling.py", ["--ymax", "4", "--rhos", "1", "2"]),
    ("prediction_sweep.py", ["--xmax", "4", "--step", "4",
                             "--samples", "4096", "--window", "4"]),
    ("density_convergence.py", ["--samples", "4096", "--epsilons", "0.2",
                                "--windows", "2"]),
])
def test_script_runs(script, args):
    source = os.path.dirname(os.path.dirname(linecount.__file__))
    run = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args],
        env={**os.environ, "PYTHONPATH": source}, capture_output=True,
        text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
