"""The stage/port seam: tick order, stub insertion, checkpoint identity.

These tests hold the decomposition's three contracts (the normative
statement lives in ``docs/ARCHITECTURE.md``):

* the wired stage list ticks in exactly the documented order;
* the machine is extensible — a stub stage inserts without perturbing
  any ``SimStats`` counter, and stage overrides swap cleanly by name;
* the state protocol survives the stage API: save → restore → continue
  stays bit-identical for machines built with overrides and extra
  stages, which own no checkpoint state.
"""

from __future__ import annotations

import pickle
import re
from pathlib import Path

import pytest

from repro.core.presets import make_config
from repro.isa.trace import ListTrace
from repro.pipeline.cpu import Simulator
from repro.pipeline.ports import DelayQueue, Wire
from repro.pipeline.stages import (
    DEFAULT_STAGES,
    TICK_ORDER,
    Issue,
    Stage,
    build_stages,
)
from repro.traces.registry import resolve_workload
from tests.conftest import alu, spec_config


def independent_alus(n):
    """A short dependency-free ALU burst (hand-trace helper)."""
    return [alu([2], 3 + (i % 4), pc=0x200 + i) for i in range(n)]

ARCHITECTURE_MD = Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md"


def documented_tick_order():
    """The tick order stated in docs/ARCHITECTURE.md (machine-readable
    ``<!-- tick-order: ... -->`` marker)."""
    match = re.search(r"<!--\s*tick-order:\s*([a-z_ ]+?)\s*-->",
                      ARCHITECTURE_MD.read_text(encoding="utf-8"))
    assert match, "docs/ARCHITECTURE.md lost its tick-order marker"
    return tuple(match.group(1).split())


class TickProbe(Stage):
    """Pure observer: counts ticks, touches nothing."""

    name = "tick_probe"
    after = "execute"

    def __init__(self, sim):
        super().__init__(sim)
        self.ticks = 0

    def tick(self, now):
        self.ticks += 1


class CycleParityStage(Stage):
    """Observer appended at the end of the tick order."""

    name = "cycle_parity"
    after = None          # appended at the end of the tick order

    def __init__(self, sim):
        super().__init__(sim)
        self.count = 0

    def tick(self, now):
        self.count += 1


class TestTickOrder:
    def test_wired_stage_list_matches_documented_order(self):
        sim = Simulator(spec_config(), ListTrace(independent_alus(4)))
        assert tuple(s.name for s in sim.stages) == documented_tick_order()

    def test_tick_order_constant_matches_documented_order(self):
        assert TICK_ORDER == documented_tick_order()

    def test_default_stage_classes_cover_every_slot(self):
        assert set(DEFAULT_STAGES) == set(TICK_ORDER)
        for name, cls in DEFAULT_STAGES.items():
            assert cls.name == name

    def test_stage_lookup_by_name(self):
        sim = Simulator(spec_config(), ListTrace(independent_alus(4)))
        assert sim.stage("issue") is sim.stages[TICK_ORDER.index("issue")]
        with pytest.raises(KeyError):
            sim.stage("nonesuch")


class TestStubInsertion:
    def _stats(self, workload, config, extra=()):
        sim = Simulator(config, workload.build_trace(1),
                        extra_stages=extra)
        sim.functional_warmup(workload.build_trace(1), 10_000)
        sim.run(max_uops=5_000)
        return sim, sim.stats.to_dict()

    @pytest.mark.parametrize("workload_name,preset",
                             [("gzip", "SpecSched_4_Crit"),
                              ("mcf", "SpecSched_4_Combined")])
    def test_stub_stage_leaves_simstats_bit_identical(self, workload_name,
                                                      preset):
        workload = resolve_workload(workload_name)
        config = make_config(preset)
        _, reference = self._stats(workload, config)
        sim, probed = self._stats(workload, config, extra=[TickProbe])
        assert probed == reference
        assert sim.stage("tick_probe").ticks == sim.stats.cycles

    def test_extra_stage_anchors_after_named_stage(self):
        sim = Simulator(spec_config(), ListTrace(independent_alus(4)),
                        extra_stages=[TickProbe])
        names = [s.name for s in sim.stages]
        assert names.index("tick_probe") == names.index("execute") + 1

    def test_extra_stage_without_anchor_appends(self):
        sim = Simulator(spec_config(), ListTrace(independent_alus(4)),
                        extra_stages=[CycleParityStage])
        assert sim.stages[-1].name == "cycle_parity"

    def test_unknown_override_name_raises(self):
        with pytest.raises(ValueError, match="unknown stage override"):
            Simulator(spec_config(), ListTrace(independent_alus(4)),
                      stage_overrides={"decode": Issue})

    def test_unknown_anchor_raises(self):
        class Orphan(TickProbe):
            name = "orphan"
            after = "decode"

        with pytest.raises(ValueError, match="unknown stage"):
            Simulator(spec_config(), ListTrace(independent_alus(4)),
                      extra_stages=[Orphan])

    def test_duplicate_stage_name_raises(self):
        class Impostor(TickProbe):
            name = "issue"

        with pytest.raises(ValueError, match="duplicate stage name"):
            Simulator(spec_config(), ListTrace(independent_alus(4)),
                      extra_stages=[Impostor])


class QuietIssue(Issue):
    """Behaviour-preserving override used to exercise the swap seam."""

    def __init__(self, sim):
        super().__init__(sim)
        self.machine = sim

    def _do_issue(self, uop, now, loads_before):
        super()._do_issue(uop, now, loads_before)
        self.machine.issue_count = getattr(self.machine, "issue_count", 0) + 1


class TestCheckpointThroughStageApi:
    """save → restore → continue through stage-API construction."""

    WORKLOAD = "mcf"
    PRESET = "SpecSched_4_Combined"
    SPLIT, TOTAL, WARMUP = 3_000, 7_000, 10_000

    def _build(self, workload, config):
        return Simulator(config, workload.build_trace(1),
                         stage_overrides={"issue": QuietIssue},
                         extra_stages=[CycleParityStage])

    def test_roundtrip_is_bit_identical_with_custom_stages(self):
        workload = resolve_workload(self.WORKLOAD)
        config = make_config(self.PRESET)

        reference = self._build(workload, config)
        reference.functional_warmup(workload.build_trace(1), self.WARMUP)
        reference.run(max_uops=self.TOTAL)

        split = self._build(workload, config)
        split.functional_warmup(workload.build_trace(1), self.WARMUP)
        split.run(max_uops=self.SPLIT)
        state = pickle.loads(pickle.dumps(split.state_dict(), protocol=4))

        restored = self._build(workload, config)
        restored.load_state_dict(state)
        restored.run(max_uops=self.TOTAL)
        assert restored.stats.to_dict() == reference.stats.to_dict()


class TestPortPrimitives:
    def test_wire_default_and_state_roundtrip(self):
        wire = Wire("w", default=-1)
        assert wire.value == -1
        wire.value = 7
        assert wire.state_dict() == 7
        wire.value = 0
        wire.load_state_dict(7)
        assert wire.value == 7

    def test_delay_queue_restore_keeps_bound_slots_alive(self):
        """The hot-path contract: restore must mutate ``slots`` in place
        (stages bind the dict at wiring time)."""

        class _Codec:
            def ref(self, uop):
                return 0

            def uop(self, ref):
                return "uop"

        queue = DelayQueue("q")
        bound = queue.slots            # what a stage binds at wiring
        queue.push(5, "uop", 1)
        state = queue.state_dict(_Codec())
        queue.load_state_dict(state, _Codec())
        assert queue.slots is bound
        assert bound == {5: [("uop", 1)]}
        assert queue.pop(5) == [("uop", 1)]
        assert queue.pop(5) is None


def test_build_stages_requires_simulator_wiring():
    """build_stages needs the structures a Simulator provides; the check
    that overrides reject unknown names must not need one."""
    with pytest.raises(ValueError, match="unknown stage override"):
        build_stages(object(), overrides={"nonesuch": Issue})
