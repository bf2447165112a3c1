"""Phase instrumentation: accounting sanity + zero behavioral drift."""

from __future__ import annotations

from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace
from repro.isa.uop import MicroOp
from repro.perf.instrument import PHASES, PhaseProfile
from repro.pipeline.cpu import Simulator
from tests.conftest import spec_config


def hand_trace(n=64):
    uops = []
    for i in range(n):
        uops.append(MicroOp(seq=0, pc=0x100 + i, opclass=OpClass.INT_ALU,
                            srcs=[2], dst=3 + (i % 4)))
    return uops


class TestInstrumentedStep:
    def test_profiled_run_counts_cycles(self):
        profile = PhaseProfile()
        sim = Simulator(spec_config(), ListTrace(hand_trace()),
                        phase_profile=profile)
        sim.run(max_cycles=2_000)
        assert sim.done
        assert profile.cycles == sim.stats.cycles > 0
        assert set(PHASES) <= set(profile.seconds)
        assert sum(profile.seconds.values()) > 0.0

    def test_profiling_does_not_change_stats(self):
        plain = Simulator(spec_config(), ListTrace(hand_trace()))
        plain.run(max_cycles=2_000)
        profiled = Simulator(spec_config(), ListTrace(hand_trace()),
                             phase_profile=PhaseProfile())
        profiled.run(max_cycles=2_000)
        assert plain.stats.to_dict() == profiled.stats.to_dict()
