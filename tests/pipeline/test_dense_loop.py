"""The dense stage loop against the per-µop loops it replaced, and the
live-only ready lists select relies on.

``PerUopRename`` keeps the old tick: each µop asks the ROB, IQ, its
register pool and its LSQ queue whether it fits. ``FullRearmExecute``
keeps the old replay re-arm, which rebuilds every waiting µop from
scoreboard truth. Installed through ``stage_overrides``, each must leave
the machine exactly where the production stage does (``SimStats`` and
the pickled ``state_dict()``, whose waiter lists are seq-sorted), on
configurations tight enough that each Rename budget binds in turn and
on replay-heavy Figure-8 cells.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.iq import IssueQueue
from repro.backend.recovery import RecoveryBuffer
from repro.core.presets import make_config
from repro.isa.opclass import OpClass
from repro.pipeline.cpu import Simulator
from repro.pipeline.stages import Execute, Rename
from repro.rename.rename import FP_REG_BASE
from repro.traces.registry import resolve_workload
from repro.workloads.spec import KernelSpec, WorkloadSpec
from tests.conftest import spec_config
from tests.pipeline.test_quiescent_skip import kernel_specs


class PerUopRename(Rename):
    """Rename with the per-µop hazard test that the budgets replaced."""

    next_event = Rename.next_event

    def tick(self, now: int) -> None:
        fetch = self.frontend
        for _ in range(self.width):
            if not fetch.pipe and not fetch.materialize_wrong_path(now):
                return
            ready, opclass, dst = fetch.head()
            if ready > now or self._blocked(opclass, dst):
                return
            self._dispatch(fetch.take(), now)

    def _blocked(self, opclass, dst) -> bool:
        renamer, lsq = self.renamer, self.lsq
        pool = renamer.fp_free if dst is not None and dst >= FP_REG_BASE else renamer.int_free
        return (
            self.rob.full
            or self.iq.full
            or (dst is not None and pool.empty)
            or (opclass == OpClass.LOAD and len(lsq.loads) >= lsq.lq_capacity)
            or (opclass == OpClass.STORE and len(lsq.stores) >= lsq.sq_capacity)
        )


class FullRearmExecute(Execute):
    """Execute whose replay re-arms every waiting µop."""

    def _rearm_waiting_uops(self, doomed, events) -> None:
        waiting = [u for u in self.iq.occupants()
                   if not u.executed and (u.num_issues == 0 or u.replay_pending)]
        waiting.extend(u for u in self.recovery.members() if u.replay_pending)
        for ready in (self.iq.ready, self.recovery.ready):
            for uop in ready:
                uop.in_ready = False
            ready.clear()
        route_ready = self.scoreboard.on_ready
        for uop in waiting:
            pending = self.scoreboard.rewatch(uop)
            store_dep = uop.store_dep
            if store_dep is not None and not store_dep.executed:
                pending = uop.pending = pending + 1
            if pending == 0:
                route_ready(uop)


#: Each budget binds in turn: ROB, IQ, LQ, SQ, the int and FP pools (a
#: few registers above the 32 each class reserves), and all at once.
TIGHT = [
    spec_config(rob_entries=12, iq_entries=12),
    spec_config(rob_entries=64, iq_entries=6),
    spec_config(lq_entries=2, banked=True, shifting=True),
    spec_config(sq_entries=2, delay=2),
    spec_config(int_prf=36),
    spec_config(fp_prf=35, delay=6, speculative=False),
    spec_config(rob_entries=12, iq_entries=6, lq_entries=2, sq_entries=2,
                int_prf=36, fp_prf=36, banked=True),
]

#: A mix with loads, stores and FP work, so every budget can bind.
MEMORY_MIX = WorkloadSpec(name="mix", kernels=(
    KernelSpec(kind="stream"), KernelSpec(kind="chase"),
    KernelSpec(kind="compute", fp=True), KernelSpec(kind="storeload")))


def _snapshot(sim):
    return sim.stats.to_dict(), pickle.dumps(sim.state_dict(), protocol=4)


def _compare_renames(config, trace_of, uops):
    results = []
    for overrides in (None, {"rename": PerUopRename}):
        sim = Simulator(config, trace_of(), stage_overrides=overrides)
        sim.run(max_uops=uops)
        results.append(_snapshot(sim))
    assert results[0] == results[1]


@given(
    st.lists(kernel_specs, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=50),
    st.sampled_from(range(len(TIGHT))),
)
@settings(max_examples=30, deadline=None)
def test_budgeted_rename_matches_the_per_uop_loop(kernels, seed, config_index):
    workload = WorkloadSpec(name="mix", kernels=tuple(kernels))
    _compare_renames(TIGHT[config_index], lambda: workload.build_trace(seed), 500)


@pytest.mark.parametrize("config_index", range(len(TIGHT)))
def test_budgeted_rename_matches_on_a_memory_mix(config_index):
    _compare_renames(TIGHT[config_index], lambda: MEMORY_MIX.build_trace(3), 1_500)


#: Which ``Rename._room`` budget each of the first six configurations
#: exhausts: (window, LQ, SQ, int registers, FP registers).
BINDING = [0, 0, 1, 2, 3, 4]


@pytest.mark.parametrize("config_index", range(len(BINDING)))
def test_each_budget_binds(config_index):
    """The tight configurations are not vacuous: a deliverable head
    finds the configuration's own budget exhausted."""
    sim = Simulator(TIGHT[config_index], MEMORY_MIX.build_trace(1))
    rename = sim.stage("rename")
    stalls = 0
    for _ in range(3_000):
        sim.step()
        head = sim.fetch.head()
        if head is not None and head[1] is not None and head[0] < sim.now:
            stalls += rename._room()[BINDING[config_index]] == 0
    assert stalls > 0


@pytest.mark.parametrize("preset, banked", [
    ("SpecSched_4", True), ("SpecSched_4_Combined", True),
    ("SpecSched_6_Crit", True), ("SpecSched_2", False)])
@pytest.mark.parametrize("name", ["xalancbmk", "swim", "mcf", "gzip"])
def test_touched_rearm_matches_the_full_rebuild(name, preset, banked):
    workload = resolve_workload(name)
    results = []
    for overrides in (None, {"execute": FullRearmExecute}):
        sim = Simulator(make_config(preset, banked=banked), workload.build_trace(1),
                        stage_overrides=overrides)
        sim.functional_warmup(workload.build_trace(1), 2_000)
        sim.run_with_warmup(300, 1_500)
        results.append(_snapshot(sim))
    assert results[0] == results[1]
    if name in ("xalancbmk", "mcf"):            # miss-heavy: replays happen
        stats = results[0][0]
        assert stats["replayed_miss"] + stats["replayed_bank"] > 0


@given(
    st.lists(kernel_specs, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=50),
    st.sampled_from(range(len(TIGHT))),
)
@settings(max_examples=20, deadline=None)
def test_touched_rearm_matches_on_kernel_mixes(kernels, seed, config_index):
    workload = WorkloadSpec(name="mix", kernels=tuple(kernels))
    results = []
    for overrides in (None, {"execute": FullRearmExecute}):
        sim = Simulator(TIGHT[config_index], workload.build_trace(seed),
                        stage_overrides=overrides)
        sim.run(max_uops=500)
        results.append(_snapshot(sim))
    assert results[0] == results[1]


# -- live-only ready lists -------------------------------------------------


def _dead_or_stale(uop, members=None) -> bool:
    """A ready-list member select must skip: squashed for good, already
    executed, in flight without a replay pending, or no longer held."""
    return (
        uop.dead
        or uop.executed
        or not uop.in_ready
        or (uop.num_issues > 0 and not uop.replay_pending)
        or (members is not None and uop not in members)
    )


@pytest.fixture
def checked_take_ready(monkeypatch):
    """Wrap both ``take_ready`` methods to assert every member is live."""
    seen = {"calls": 0, "members": 0}
    iq_take, recovery_take = IssueQueue.take_ready, RecoveryBuffer.take_ready

    def iq_checked(self):
        ready = iq_take(self)
        assert not [u for u in ready if _dead_or_stale(u) or not u.in_iq]
        seen["calls"] += 1
        seen["members"] += len(ready)
        return ready

    def recovery_checked(self):
        ready = recovery_take(self)
        members = set(self.members())
        assert not [u for u in ready
                    if _dead_or_stale(u, members) or not u.replay_pending]
        seen["members"] += len(ready)
        return ready

    monkeypatch.setattr(IssueQueue, "take_ready", iq_checked)
    monkeypatch.setattr(RecoveryBuffer, "take_ready", recovery_checked)
    return seen


FIG8 = (("Baseline_0", False), ("SpecSched_4", True),
        ("SpecSched_4_Combined", True), ("SpecSched_4_Crit", True))


@pytest.mark.parametrize("preset, banked", FIG8, ids=[p for p, _ in FIG8])
@pytest.mark.parametrize("name", ["gzip", "swim", "xalancbmk", "mcf", "libquantum"])
def test_fig8_cells_keep_only_live_uops_on_the_ready_lists(
        checked_take_ready, name, preset, banked):
    workload = resolve_workload(name)
    sim = Simulator(make_config(preset, banked=banked), workload.build_trace(1))
    sim.functional_warmup(workload.build_trace(1), 2_000)
    sim.run_with_warmup(500, 2_500)
    assert checked_take_ready["members"] > 0


def _step_until(sim, predicate, limit=20_000):
    for _ in range(limit):
        if predicate():
            return
        sim.step()
    raise AssertionError("machine never reached the wanted state")


@pytest.mark.parametrize("list_name", ["iq", "recovery"])
def test_kill_uops_leaves_no_dead_uop_on_either_ready_list(list_name):
    """A branch-style squash on a built machine: every µop it kills is
    off both ready lists when ``_kill_uops`` returns."""
    workload = resolve_workload("xalancbmk")
    sim = Simulator(make_config("SpecSched_4", banked=True), workload.build_trace(1))
    sim.functional_warmup(workload.build_trace(1), 2_000)
    ready = getattr(sim, list_name).ready
    _step_until(sim, lambda: len(ready) >= 2 and len(sim.rob) >= 8)
    cut = ready[len(ready) // 2].seq - 1       # kills half of that list
    doomed = sim.rob.squash_younger(cut)
    assert any(u.in_ready for u in doomed)
    sim.stage("execute")._kill_uops(doomed)
    for uop in sim.iq.take_ready() + sim.recovery.take_ready():
        assert not uop.dead and uop.seq <= cut
    assert not any(u.in_ready for u in doomed)
