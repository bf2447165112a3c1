"""Cycle-exact scheduling tests on hand-built traces.

These pin the paper's timing contract (Figures 1, 2, 6):

* back-to-back execution of dependent µops;
* speculative wakeup `issue + load-to-use` for L1 hits;
* conservative wakeup `issue + load-to-use + D` for L1 hits (Baseline_*);
* miss detection at `issue + D + load-to-use − 1` with the Alpha-style
  window squash and corrected re-issue;
* Schedule Shifting absorbing same-cycle pair bank conflicts.
"""

from typing import List

from repro.experiments.timeline import TimelineSink
from repro.isa.trace import ListTrace
from repro.isa.uop import MicroOp
from repro.pipeline.cpu import Simulator
from repro.telemetry.events import EventBus

from tests.conftest import alu, load, run_to_completion, spec_config


def trace_sim(uops: List[MicroOp], config, prefill=()):
    timeline = TimelineSink(config.core.issue_to_execute_delay)
    sim = Simulator(config, ListTrace(uops), event_bus=EventBus(timeline))
    sim.issue_log = timeline.issue_log
    for addr in prefill:
        sim.hierarchy.l1d.fill(addr)
        sim.hierarchy.l2.fill(addr)
    return sim


def attempts(sim, seq):
    return sim.issue_log[seq]


def final_issue(sim, seq):
    return attempts(sim, seq)[-1][0]


class TestBackToBack:
    def test_alu_chain_issues_one_apart(self):
        cfg = spec_config(delay=4)
        sim = trace_sim([alu([2], 4), alu([4], 5), alu([5], 6)], cfg)
        run_to_completion(sim)
        i0, i1, i2 = (final_issue(sim, s) for s in (0, 1, 2))
        assert i1 == i0 + 1
        assert i2 == i1 + 1

    def test_exec_start_is_issue_plus_delay_plus_one(self):
        cfg = spec_config(delay=4)
        sim = trace_sim([alu([2], 4)], cfg)
        run_to_completion(sim)
        issue, exec_start, squashed = attempts(sim, 0)[0]
        assert exec_start == issue + 5
        assert not squashed

    def test_mul_latency_respected(self):
        from repro.isa.opclass import OpClass
        from tests.conftest import uop
        cfg = spec_config(delay=4)
        sim = trace_sim([uop(OpClass.INT_MUL, srcs=[2], dst=4),
                         alu([4], 5)], cfg)
        run_to_completion(sim)
        assert final_issue(sim, 1) == final_issue(sim, 0) + 3


class TestSpeculativeLoadWakeup:
    def test_hit_dependent_issues_at_load_to_use(self):
        cfg = spec_config(delay=4)
        sim = trace_sim([load(0x1000, dst=4), alu([4], 5)], cfg,
                        prefill=[0x1000])
        run_to_completion(sim)
        assert final_issue(sim, 1) == final_issue(sim, 0) + 4
        assert sim.stats.replayed_total == 0

    def test_conservative_hit_pays_issue_to_execute(self):
        cfg = spec_config(delay=4, speculative=False)
        sim = trace_sim([load(0x1000, dst=4), alu([4], 5)], cfg,
                        prefill=[0x1000])
        run_to_completion(sim)
        assert final_issue(sim, 1) == final_issue(sim, 0) + 4 + 4
        assert sim.stats.replayed_total == 0

    def test_conservative_penalty_scales_with_delay(self):
        for delay in (2, 6):
            cfg = spec_config(delay=delay, speculative=False)
            sim = trace_sim([load(0x1000, dst=4), alu([4], 5)], cfg,
                            prefill=[0x1000])
            run_to_completion(sim)
            assert final_issue(sim, 1) == final_issue(sim, 0) + 4 + delay


class TestMissReplay:
    def _miss_sim(self, delay=4):
        cfg = spec_config(delay=delay)
        sim = trace_sim([load(0x1000, dst=4), alu([4], 5)], cfg)
        sim.hierarchy.l2.fill(0x1000)       # L1 miss, L2 hit: alat = 13
        return sim

    def test_dependent_squashed_and_replayed(self):
        sim = self._miss_sim()
        run_to_completion(sim)
        tries = attempts(sim, 1)
        assert len(tries) == 2
        first, second = tries
        assert first[2] == 1                 # squashed attempt
        assert second[2] == 0
        load_issue = final_issue(sim, 0)
        assert first[0] == load_issue + 4    # woken assuming a hit
        assert second[0] == load_issue + 13  # corrected to the L2 latency

    def test_replay_statistics(self):
        sim = self._miss_sim()
        run_to_completion(sim)
        assert sim.stats.replayed_miss >= 1
        assert sim.stats.replayed_bank == 0
        assert sim.stats.squash_events_miss == 1
        assert sim.stats.issue_cycles_lost == 1

    def test_unique_vs_issued_counts(self):
        sim = self._miss_sim()
        run_to_completion(sim)
        assert sim.stats.unique_issued == 2
        assert sim.stats.issued_total == 3   # dependent issued twice

    def test_no_replay_when_delay_zero(self):
        """With D=0 the correction lands before dependents issue:
        SpecSched_0 cannot replay (Section 4 / DESIGN invariant)."""
        sim = self._miss_sim(delay=0)
        run_to_completion(sim)
        assert sim.stats.replayed_total == 0
        assert len(attempts(sim, 1)) == 1

    def test_independent_uop_in_window_squashed_too(self):
        """Alpha-style replay is non-selective: independents in the
        in-flight window are squashed with the dependents."""
        cfg = spec_config(delay=4)
        uops = [load(0x1000, dst=4), alu([4], 5),
                alu([2], 6), alu([6], 7), alu([7], 8), alu([8], 9),
                alu([9], 10), alu([10], 11), alu([11], 12)]
        sim = trace_sim(uops, cfg)
        sim.hierarchy.l2.fill(0x1000)
        run_to_completion(sim)
        # More µops replayed than the single true dependent.
        assert sim.stats.replayed_miss > 1


class TestBankConflictReplay:
    BANK0_SET0 = 0x000
    BANK0_SET1 = 0x040

    def _conflict_trace(self):
        return [load(self.BANK0_SET0, dst=4, pc=0x100),
                load(self.BANK0_SET1, dst=5, pc=0x101),
                alu([5], 6)]

    def test_pair_conflict_replays_dependent(self):
        cfg = spec_config(delay=4, banked=True)
        sim = trace_sim(self._conflict_trace(), cfg,
                        prefill=[self.BANK0_SET0, self.BANK0_SET1])
        run_to_completion(sim)
        assert final_issue(sim, 0) == attempts(sim, 1)[0][0]  # same cycle
        assert sim.stats.l1d_bank_conflicts == 1
        assert sim.stats.replayed_bank >= 1
        assert sim.stats.replayed_miss == 0

    def test_dual_ported_cache_no_conflict(self):
        cfg = spec_config(delay=4, banked=False)
        sim = trace_sim(self._conflict_trace(), cfg,
                        prefill=[self.BANK0_SET0, self.BANK0_SET1])
        run_to_completion(sim)
        assert sim.stats.replayed_total == 0

    def test_schedule_shifting_absorbs_conflict(self):
        cfg = spec_config(delay=4, banked=True, shifting=True)
        sim = trace_sim(self._conflict_trace(), cfg,
                        prefill=[self.BANK0_SET0, self.BANK0_SET1])
        run_to_completion(sim)
        assert sim.stats.replayed_total == 0
        assert sim.stats.shifted_loads >= 1
        # Dependent of the second load woken one cycle late, no replay.
        assert final_issue(sim, 2) == final_issue(sim, 1) + 5

    def test_shifting_costs_cycle_without_conflict(self):
        """Drawback 1 (Section 5.1): a non-conflicting pair still delays
        the second load's dependents by one cycle."""
        cfg = spec_config(delay=4, banked=True, shifting=True)
        uops = [load(0x000, dst=4, pc=0x100),       # bank 0
                load(0x048, dst=5, pc=0x101),       # bank 1: no conflict
                alu([5], 6)]
        sim = trace_sim(uops, cfg, prefill=[0x000, 0x040])
        run_to_completion(sim)
        assert sim.stats.replayed_total == 0
        assert final_issue(sim, 2) == final_issue(sim, 1) + 5

    def test_same_set_pair_needs_no_shift(self):
        cfg = spec_config(delay=4, banked=True)
        uops = [load(0x000, dst=4, pc=0x100),
                load(0x000 + 0, dst=5, pc=0x101),   # same set: line buffer
                alu([5], 6)]
        sim = trace_sim(uops, cfg, prefill=[0x000])
        run_to_completion(sim)
        assert sim.stats.replayed_total == 0
