"""Table-sized machine state is stored as flat leaf columns.

The checkpoint codec (:mod:`repro.checkpoint.format`) passes a list of
plain ints through unchanged, but visits, pickles and unpickles every
nested container one at a time. So in a warmed machine no table-sized
list or tuple under the warmed islands may hold containers: the TAGE
tables, the BTB and the caches save int columns. A restored machine
must still equal the one it was saved from, and continue the same run.
"""

from __future__ import annotations

import pytest

from repro.checkpoint.format import restore_simulator, save_checkpoint
from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.traces.registry import resolve_workload

#: Longest list or tuple that may hold containers (the L1D's 64 sets
#: would fit; nothing under the islands needs them).
MAX_NESTED = 64
ISLANDS = ("branch_unit", "hierarchy", "policy")


def _nested_tables(obj, path):
    """Dotted paths of lists/tuples longer than :data:`MAX_NESTED` that
    hold a container, anywhere under ``obj``."""
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, (list, tuple)):
        children = enumerate(obj)
        if len(obj) > MAX_NESTED and any(
                isinstance(value, (dict, list, tuple)) for value in obj):
            yield f"{path} ({len(obj)} elements)"
    else:
        return
    for key, value in children:
        if isinstance(value, (dict, list, tuple)):
            yield from _nested_tables(value, f"{path}.{key}")


def _warmed(name, uops=20_000):
    workload = resolve_workload(name)
    sim = Simulator(make_config("SpecSched_4_Crit", banked=True),
                    workload.build_trace(1))
    sim.fast_forward(uops)
    return workload, sim


@pytest.mark.parametrize("name", ["gzip", "mcf"])
def test_warmed_islands_hold_only_flat_tables(name):
    _, sim = _warmed(name)
    state = sim.state_dict()
    offenders = [path for island in ISLANDS
                 for path in _nested_tables(state[island], island)]
    assert offenders == []


def test_tage_heavy_checkpoint_resumes_identically(tmp_path):
    # gobmk allocates the most tagged TAGE entries of the suite's
    # branchy programs over a warmup.
    workload, sim = _warmed("gobmk", uops=30_000)
    tage = sim.branch_unit.tage
    assert sum(tag != -1 for column in tage._tags for tag in column) > 500
    sim.run(max_uops=3_000)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(sim, path, workload=workload, seed=1)

    restored = restore_simulator(path)
    assert restored.state_dict() == sim.state_dict()
    sim.run(max_uops=8_000)
    restored.run(max_uops=8_000)
    assert restored.stats.to_dict() == sim.stats.to_dict()
