"""Importing the simulator must not import numpy.

The warming engine (and with it numpy) loads on the first warm call.
A fresh import of the modules a benchmark set-up imports
(``perfbench/grid.py``'s ``IMPORTS``) plus the simulator driver must
leave numpy unloaded: importing it there would add a large share of
that import's wall time.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

MODULES = (
    "repro.experiments.runner",
    "repro.checkpoint.sampling",
    "repro.traces.format",
    "repro.pipeline.cpu",
)


def test_simulator_imports_leave_numpy_unloaded():
    code = (f"import sys\nimport {', '.join(MODULES)}\n"
            "print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

