"""Quiescent-cycle skipping leaves counters and machine state unchanged.

``Simulator.run`` jumps over cycles in which every stage's
``next_event`` names a later cycle, applying them through each stage's
``skip``. Appending one stage that keeps the default ``next_event``
(answer ``now``) forces the same machine to tick every cycle: that is
the documented opt-out, and the reference every test here compares
against. Equality is exact — every ``SimStats`` counter and the pickled
``state_dict()``.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.presets import make_config
from repro.isa.opclass import OpClass
from repro.isa.rv32i.corpus import BUNDLED
from repro.isa.trace import ListTrace
from repro.perf.instrument import PhaseProfile
from repro.pipeline.cpu import Simulator
from repro.pipeline.stages.base import SimulationError, Stage
from repro.telemetry.probes import MetricsCollector
from repro.traces.registry import resolve_workload
from repro.workloads.spec import KERNEL_KINDS, KernelSpec, WorkloadSpec
from tests.conftest import alu, spec_config, uop
from tests.properties.test_props_pipeline import CONFIGS, traces

FIG8_FAMILIES = ("Baseline_{}", "SpecSched_{}", "SpecSched_{}_Combined", "SpecSched_{}_Crit")
#: Small volumes: functional warmup, detailed warmup, measured µops.
FUNCTIONAL, WARMUP, MEASURE = 1_000, 100, 300


class EveryCycle(Stage):
    """Keeps the default ``next_event``: the machine ticks every cycle."""

    name = "every_cycle"

    def tick(self, now: int) -> None:
        pass


def _build(config, trace, per_cycle, **kwargs):
    extra = list(kwargs.pop("extra_stages", ()))
    if per_cycle:
        extra.append(EveryCycle)
    return Simulator(config, trace, extra_stages=extra, **kwargs)


def _count_steps(sim, method="step"):
    """Wrap ``sim.step`` (or the profiled twin) to count ticked cycles."""
    counter = {"steps": 0}
    step = getattr(sim, method)

    def counted():
        counter["steps"] += 1
        step()

    setattr(sim, method, counted)
    return counter


def _snapshot(sim):
    return sim.stats.to_dict(), pickle.dumps(sim.state_dict(), protocol=4)


def _workload_cell(workload, config, per_cycle, seed=1):
    sim = _build(config, workload.build_trace(seed), per_cycle)
    sim.functional_warmup(workload.build_trace(seed), FUNCTIONAL)
    sim.run_with_warmup(WARMUP, MEASURE)
    return sim


@pytest.mark.parametrize("delay", [0, 2, 4, 6])
@pytest.mark.parametrize("banked", [True, False], ids=["banked", "dual"])
@pytest.mark.parametrize("family", FIG8_FAMILIES, ids=["Baseline", "SpecSched", "Combined", "Crit"])
@pytest.mark.parametrize("workload_name", ["mcf", "libquantum", "xalancbmk", "gzip"])
def test_fig8_cell_matches_per_cycle_ticking(workload_name, family, banked, delay):
    workload = resolve_workload(workload_name)
    config = make_config(family.format(delay), banked=banked)
    skipping = _workload_cell(workload, config, per_cycle=False)
    ticking = _workload_cell(workload, config, per_cycle=True)
    assert _snapshot(skipping) == _snapshot(ticking)


def _count_fetch_ticks(sim):
    """Wrap the frontend's ``tick`` to count the cycles fetch applies,
    ticked or replayed by its ``skip``; a one-item list."""
    counter = [0]
    tick = sim.fetch.tick

    def counted(now):
        counter[0] += 1
        tick(now)

    sim.fetch.tick = counted
    return counter


def test_memory_bound_cell_skips_cycles():
    """The equivalence above is not vacuous: on mcf over a third of the
    cycles jump, and correct-path fetch spans jump with them (fetch
    applies more cycles than the machine ticks, the extra ones replayed
    by its ``skip``)."""
    workload = resolve_workload("mcf")
    sim = _build(make_config("SpecSched_4_Combined"), workload.build_trace(1), False)
    sim.functional_warmup(workload.build_trace(1), 2_000)
    steps = _count_steps(sim)
    fetch_ticks = _count_fetch_ticks(sim)
    sim.run(max_uops=400)
    assert steps["steps"] < 0.75 * sim.stats.cycles
    assert steps["steps"] < fetch_ticks[0]


def test_flooded_frontend_cell_skips_and_matches_per_cycle_ticking():
    """libquantum under SpecSched_4 floods the frontend pipe: fetch runs
    far ahead of Rename, and its correct-path ticks jump with the rest
    while anything is in flight (replayed by its ``skip``, so fetch
    ticks more cycles than the machine does)."""
    workload = resolve_workload("libquantum")
    config = make_config("SpecSched_4")
    snapshots, steps, fetch_ticks = [], [], []
    for per_cycle in (False, True):
        sim = _build(config, workload.build_trace(1), per_cycle)
        sim.functional_warmup(workload.build_trace(1), FUNCTIONAL)
        steps.append(_count_steps(sim))
        fetch_ticks.append(_count_fetch_ticks(sim))
        sim.run_with_warmup(WARMUP, MEASURE)
        snapshots.append(_snapshot(sim))
    assert snapshots[0] == snapshots[1]
    assert steps[1]["steps"] == fetch_ticks[1][0] == sim.stats.cycles
    assert steps[0]["steps"] < fetch_ticks[0][0] <= sim.stats.cycles
    assert steps[0]["steps"] < 0.75 * sim.stats.cycles


def test_checkpoint_mid_wrong_path_episode_restores_and_continues():
    """Save a skipping run while its frontend holds a partly consumed
    run of wrong-path groups, restore into a skipping machine, continue:
    identical to an uninterrupted per-cycle run."""
    workload = resolve_workload("mcf")
    config = make_config("SpecSched_4")
    reference = _build(config, workload.build_trace(1), per_cycle=True)
    reference.run(max_uops=1_500)

    first = _build(config, workload.build_trace(1), per_cycle=False)
    width = config.core.fetch_width
    while True:
        first.run(max_cycles=first.stats.cycles + 1)
        assert first.stats.committed_uops < 1_500, "no wrong-path episode"
        groups = first.fetch._wp_groups
        if groups and groups[0][0] < groups[0][2] and groups[0][1] < width:
            break
    state = pickle.loads(pickle.dumps(first.state_dict(), protocol=4))
    resumed = _build(config, workload.build_trace(1), per_cycle=False)
    resumed.load_state_dict(state)
    resumed.run(max_uops=1_500)
    assert _snapshot(resumed) == _snapshot(reference)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_rv32i_kernel_matches_per_cycle_ticking(name):
    workload = resolve_workload(name)
    config = make_config("SpecSched_4_Crit")
    results = []
    for per_cycle in (False, True):
        sim = _build(config, workload.build_trace(1), per_cycle)
        sim.run(max_uops=1_500)
        results.append(_snapshot(sim))
    assert results[0] == results[1]


@pytest.mark.parametrize("restore_per_cycle", [False, True])
def test_detailed_checkpoint_mid_run_restores_and_continues(restore_per_cycle):
    """Save a skipping run mid-flight, restore into either machine,
    continue: identical to an uninterrupted per-cycle run."""
    workload = resolve_workload("mcf")
    config = make_config("SpecSched_4")

    reference = _build(config, workload.build_trace(1), per_cycle=True)
    reference.run(max_uops=1_500)

    first = _build(config, workload.build_trace(1), per_cycle=False)
    first.run(max_uops=700)
    state = pickle.loads(pickle.dumps(first.state_dict(), protocol=4))
    resumed = _build(config, workload.build_trace(1), per_cycle=restore_per_cycle)
    resumed.load_state_dict(state)
    resumed.run(max_uops=1_500)
    assert _snapshot(resumed) == _snapshot(reference)


@given(traces(), st.sampled_from(range(len(CONFIGS))))
@settings(max_examples=40, deadline=None)
def test_hand_traces_match_per_cycle_ticking(uops, config_index):
    results = []
    for per_cycle in (False, True):
        trace = ListTrace([u.clone_arch(0) for u in uops])
        sim = _build(CONFIGS[config_index], trace, per_cycle)
        sim.run(max_cycles=30_000)
        assert sim.done
        results.append(_snapshot(sim))
    assert results[0] == results[1]


kernel_specs = st.builds(
    KernelSpec,
    kind=st.sampled_from(sorted(KERNEL_KINDS)),
    weight=st.floats(min_value=0.5, max_value=4.0),
    fp=st.booleans(),
)


@given(
    st.lists(kernel_specs, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=50),
    st.sampled_from(["SpecSched_4_Combined", "SpecSched_2", "Baseline_6"]),
)
@settings(max_examples=12, deadline=None)
def test_kernel_mixes_match_per_cycle_ticking(kernels, seed, preset):
    workload = WorkloadSpec(name="mix", kernels=tuple(kernels))
    config = make_config(preset)
    results = []
    for per_cycle in (False, True):
        sim = _build(config, workload.build_trace(seed), per_cycle)
        sim.run(max_uops=300)
        results.append(_snapshot(sim))
    assert results[0] == results[1]


def test_profiled_run_skips_and_counts_every_cycle():
    """The profiled step shares the jump: ``PhaseProfile.cycles`` still
    counts skipped cycles, and the counters are the per-cycle ones."""
    workload = resolve_workload("mcf")
    config = make_config("SpecSched_4")
    profile = PhaseProfile()
    profiled = _build(config, workload.build_trace(1), False, phase_profile=profile)
    steps = _count_steps(profiled, "_step_profiled")
    profiled.run(max_uops=1_500)
    reference = _build(config, workload.build_trace(1), per_cycle=True)
    reference.run(max_uops=1_500)
    assert _snapshot(profiled) == _snapshot(reference)
    assert profile.cycles == profiled.stats.cycles > steps["steps"] > 0


def test_metrics_table_matches_per_cycle_ticking():
    """``repro run --metrics``: the occupancy probe samples skipped spans
    in bulk, so the telemetry table is the per-cycle one."""
    workload = resolve_workload("mcf")
    config = make_config("SpecSched_4_Crit")
    tables = []
    for per_cycle in (False, True):
        collector = MetricsCollector()
        sim = _build(config, workload.build_trace(1), per_cycle,
                     event_bus=collector.bus, extra_stages=collector.probes)
        sim.run(max_uops=1_500)
        tables.append(collector.finalize(sim))
        assert tables[-1]["occupancy"]["cycles"] == sim.now
    assert tables[0] == tables[1]


# -- edge cases ------------------------------------------------------------


def _wedged(per_cycle):
    """A mispredicted branch that never executes: fetch stays on the
    wrong path, nothing commits, and every cycle after the window fills
    is quiescent."""
    sim = _build(spec_config(delay=4), ListTrace(
        [uop(OpClass.BRANCH, pc=0x100, srcs=[2], taken=True, target=0x400)]
        + [alu([2], 3, pc=0x400 + i) for i in range(8)]), per_cycle)
    sim.stage("execute")._execute_uop = lambda uop, now: None
    sim.DEADLOCK_LIMIT = 5_000
    return sim


def test_wedged_machine_raises_the_same_error_at_the_same_cycle():
    messages = []
    for per_cycle in (False, True):
        sim = _wedged(per_cycle)
        steps = _count_steps(sim)
        with pytest.raises(SimulationError, match="no commit for") as caught:
            sim.run()
        messages.append((str(caught.value), sim.now, sim.stats.cycles))
        if not per_cycle:
            assert steps["steps"] < sim.stats.cycles // 10
    assert messages[0] == messages[1]
    assert "at cycle 5001;" in messages[0][0]


def test_max_cycles_stops_a_jump_at_exactly_the_bound():
    sim = _wedged(per_cycle=False)
    steps = _count_steps(sim)
    sim.run(max_cycles=1_234)
    assert sim.stats.cycles == sim.now == 1_234
    assert steps["steps"] < 1_234
    reference = _wedged(per_cycle=True)
    reference.run(max_cycles=1_234)
    assert _snapshot(sim) == _snapshot(reference)


def test_state_matches_at_every_cycle_boundary():
    """Stop a memory-bound run at each cycle in turn: a jump cut short by
    ``max_cycles`` leaves the state ticking leaves, including the
    per-cycle wires and FU ports the driver's prologue resets."""
    workload = resolve_workload("mcf")
    config = make_config("SpecSched_4")
    machines = [_build(config, workload.build_trace(1), per_cycle) for per_cycle in (False, True)]
    for sim in machines:
        sim.run(max_cycles=1_000)
    for cycles in range(1_001, 1_301):
        for sim in machines:
            sim.run(max_cycles=cycles)
        assert machines[0].state_dict() == machines[1].state_dict()


def test_finite_trace_drains_with_fetch_exhausted():
    results = []
    workload = resolve_workload("mcf")
    for per_cycle in (False, True):
        source = workload.build_trace(1)
        trace = ListTrace([source.next_uop() for _ in range(800)])
        sim = _build(make_config("SpecSched_4"), trace, per_cycle)
        sim.run()
        assert sim.done and sim.fetch.trace_exhausted
        assert sim.stats.committed_uops == 800
        results.append(_snapshot(sim))
    assert results[0] == results[1]
