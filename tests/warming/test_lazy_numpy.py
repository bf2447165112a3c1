"""Importing the simulator must not import numpy or a process pool.

The warming engine (and with it numpy) loads on the first warm call,
and the engine's process pool only when a batch runs with more than one
job. A fresh import of the modules a benchmark set-up imports
(``perfbench/grid.py``'s ``IMPORTS``) plus the simulator driver must
leave numpy, ``concurrent.futures.process`` and ``multiprocessing``
unloaded: importing them there would add a large share of that import's
wall time.
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

#: Modules the imports above must leave unloaded.
LAZY = ("numpy", "concurrent.futures.process", "multiprocessing")


def test_simulator_imports_leave_numpy_and_the_pool_unloaded():
    code = (f"import sys\nimport {', '.join(MODULES)}\n"
            f"print([name for name in {LAZY!r} if name in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

