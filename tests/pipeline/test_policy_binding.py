"""The stages call only the policy tables the cell has.

Commit trains the hit/miss filter on loads and the criticality table on
every µop, and Bookkeep feeds the global counter, each only when the
cell's policy has that table: a cell without the mechanism pays no
per-µop or per-cycle call for it. A profile hook records every function
``Commit._retire`` and ``Bookkeep.tick`` call while the machine runs.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.pipeline.stages.bookkeep import Bookkeep
from repro.pipeline.stages.commit import Commit
from repro.traces.registry import resolve_workload

CALLERS = {Commit._retire.__code__: "commit", Bookkeep.tick.__code__: "bookkeep"}


def _callees(preset: str, workload: str = "mcf", uops: int = 1500) -> dict:
    """``{"commit": Counter, "bookkeep": Counter}`` of ``(callee
    qualname)`` call counts while ``preset`` runs ``uops`` µops."""
    sim = Simulator(make_config(preset), resolve_workload(workload).build_trace(1))
    seen = {"commit": Counter(), "bookkeep": Counter()}

    def hook(frame, event, arg):
        if event == "call":
            caller = CALLERS.get(frame.f_back.f_code)
            if caller is not None:
                seen[caller][frame.f_code.co_qualname] += 1
        elif event == "c_call":
            caller = CALLERS.get(frame.f_code)
            if caller is not None:
                seen[caller][getattr(arg, "__qualname__", repr(arg))] += 1

    sys.setprofile(hook)
    try:
        sim.run(max_uops=uops)
    finally:
        sys.setprofile(None)
    assert sim.stats.committed_uops >= uops
    assert sim.stats.l1d_accesses > 0
    return seen


#: Architectural effects of every retirement, whatever the policy.
RETIRE = {"RegisterRenamer.commit", "LoadStoreQueue.release"}


@pytest.mark.parametrize("preset, trained", [
    ("Baseline_0", set()),
    ("SpecSched_4", set()),
    ("SpecSched_4_Combined", {"HitMissFilter.train"}),
    ("SpecSched_4_Crit", {"HitMissFilter.train", "CriticalityPredictor.train"}),
])
def test_commit_trains_only_the_tables_present(preset, trained):
    assert set(_callees(preset)["commit"]) == RETIRE | trained


@pytest.mark.parametrize("preset", ["SpecSched_4", "Baseline_0"])
def test_bookkeep_makes_no_policy_call_without_a_counter(preset):
    assert set(_callees(preset)["bookkeep"]) == {"ReplayController.prune"}


def test_bookkeep_feeds_the_counter_when_it_gates():
    bookkeep = _callees("SpecSched_4_Ctr")["bookkeep"]
    assert bookkeep["GlobalHitMissCounter.observe_cycle"] > 0
