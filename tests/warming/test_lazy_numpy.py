"""The simulator needs no numpy, and importing it loads no process pool.

Warming, capture and replay are pure Python, so a warmed full cell, a
``capture`` and a sampled cell over that recording run in an
interpreter where ``import numpy`` fails, and count what they counted
when warming still ran on numpy kernels. The engine's process pool
loads only when a batch runs with more than one job: a fresh import of
the modules a benchmark set-up imports (``perfbench/grid.py``'s
``IMPORTS``) plus ``repro.pipeline.cpu`` must leave numpy,
``concurrent.futures.process`` and ``multiprocessing`` unloaded, and
running one-job cells must not load the pool either.
"""

from __future__ import annotations

import json
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

#: The ``SimStats`` counters the numpy-free run reports.
FIELDS = ("cycles", "committed_uops", "issued_total", "replayed_miss",
          "branch_mispredicts", "l1d_misses", "l2_misses")

#: A warmed mcf cell, a 40,000-µop capture of mcf and a two-interval
#: sampled cell over it, run in an interpreter that cannot import numpy.
NUMPY_FREE_RUN = f"""
import json, sys, tempfile
from pathlib import Path
sys.modules["numpy"] = None
from repro.checkpoint.sampling import SamplingSpec
from repro.experiments.engine import EngineOptions
from repro.pipeline.sim import run_workload
from repro.traces.format import capture
from repro.traces.registry import resolve_workload

def counters(result):
    return [getattr(result.stats, name) for name in {FIELDS!r}]

out = {{"full": counters(run_workload(
    "mcf", "SpecSched_4_Combined", warmup_uops=300, measure_uops=1500,
    functional_warmup_uops=5000, seed=1))}}
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "mcf.trc"
    info = capture(resolve_workload("mcf").build_trace(1), path, 40_000,
                   wp_seed=1)
    out["capture"] = [info.uop_count, info.digest]
    spec = SamplingSpec(intervals=2, interval_uops=1_000, warmup_uops=300,
                        period_uops=10_000, offset_uops=5_000)
    out["sampled"] = counters(run_workload(
        str(path), "SpecSched_4_Combined", sampling=spec,
        options=EngineOptions(jobs=1, cache_dir="off")))
out["loaded"] = [name for name in {LAZY[1:]!r} if name in sys.modules]
print(json.dumps(out))
"""

#: What the run above counted when warming ran on numpy kernels.
EXPECTED = {
    "full": [4771, 1500, 1618, 0, 20, 453, 0],
    "capture": [40_000, "40a689c4229c4612410be441d8d00260"
                        "e0f7bb792d4b1a6b148249c0736df422"],
    "sampled": [71028, 1998, 2100, 4, 32, 635, 609],
    "loaded": [],
}


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_simulator_imports_leave_numpy_and_the_pool_unloaded():
    out = _run(f"import sys\nimport {', '.join(MODULES)}\n"
               f"print([name for name in {LAZY!r} if name in sys.modules])")
    assert out.strip() == "[]"


def test_cells_and_capture_run_without_numpy():
    assert json.loads(_run(NUMPY_FREE_RUN)) == EXPECTED
