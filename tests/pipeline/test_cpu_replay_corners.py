"""Replay corner cases the paper calls out explicitly."""

from repro.experiments.timeline import TimelineSink
from repro.isa.trace import ListTrace
from repro.pipeline.cpu import Simulator
from repro.telemetry.events import EventBus

from tests.conftest import alu, load, run_to_completion, spec_config


def trace_sim(uops, config, prefill=(), l2=()):
    timeline = TimelineSink(config.core.issue_to_execute_delay)
    sim = Simulator(config, ListTrace(uops), event_bus=EventBus(timeline))
    sim.issue_log = timeline.issue_log
    for addr in prefill:
        sim.hierarchy.l1d.fill(addr)
        sim.hierarchy.l2.fill(addr)
    for addr in l2:
        sim.hierarchy.l2.fill(addr)
    return sim


class TestTwoMissingLoadsWithShifting:
    """Drawback 3 (Section 5.1): two same-cycle loads that both miss
    trigger *two* squash events under Schedule Shifting, because the
    second load's extra promised cycle separates the detections."""

    def _uops(self):
        return [load(0x1000, dst=4, pc=0x100),
                load(0x2000, dst=5, pc=0x101),
                alu([4], 6), alu([5], 7)]

    def test_without_shifting_one_event(self):
        sim = trace_sim(self._uops(), spec_config(delay=4, banked=True),
                        l2=[0x1000, 0x2000])
        run_to_completion(sim)
        assert sim.stats.squash_events_miss == 1

    def test_with_shifting_two_events(self):
        sim = trace_sim(self._uops(),
                        spec_config(delay=4, banked=True, shifting=True),
                        l2=[0x1000, 0x2000])
        run_to_completion(sim)
        assert sim.stats.squash_events_miss == 2


class TestNestedReplays:
    def test_replayed_dependent_of_second_miss_replays_again(self):
        """A chain across two missing loads: the dependent can be squashed
        twice (once per load's detection)."""
        cfg = spec_config(delay=4)
        uops = [load(0x1000, dst=4, pc=0x100),
                alu([4], 5),
                load(0x2000, dst=6, pc=0x102),
                alu([6], 7),
                alu([5, 7], 8)]
        sim = trace_sim(uops, cfg, l2=[0x1000, 0x2000])
        run_to_completion(sim)
        assert sim.stats.committed_uops == 5
        assert sim.stats.replayed_miss >= 2
        # Every µop's final issue is valid (assertion inside the core).

    def test_miss_load_in_replay_window_reaccesses_cache(self):
        """A load squashed by an unrelated replay re-issues from the IQ
        and accesses the cache a second time."""
        cfg = spec_config(delay=4)
        uops = [load(0x1000, dst=4, pc=0x100),   # misses -> squash window
                alu([4], 5),
                load(0x3000, dst=6, pc=0x102),   # hit, but in the window
                alu([6], 7)]
        sim = trace_sim(uops, cfg, prefill=[0x3000], l2=[0x1000])
        run_to_completion(sim)
        # The hit load was issued once or twice depending on alignment;
        # if squashed, it must have re-accessed the L1.
        hit_load_attempts = len(sim.issue_log[2])
        assert sim.stats.l1d_accesses == 1 + hit_load_attempts


class TestRecoveryBufferPriority:
    def test_replays_issue_before_younger_iq_uops(self):
        """After a squash, replayed µops (older) re-issue before younger
        never-issued µops: oldest-first with buffer priority."""
        cfg = spec_config(delay=4)
        uops = [load(0x1000, dst=4, pc=0x100)]
        uops += [alu([4], 5, pc=0x101 + i) for i in range(3)]   # dependents
        uops += [alu([2], 10, pc=0x180 + i) for i in range(12)]  # younger indep
        sim = trace_sim(uops, cfg, l2=[0x1000])
        run_to_completion(sim)
        dep_final = sim.issue_log[1][-1][0]
        # The dependent replays at the corrected wakeup (load issue + 13).
        load_issue = sim.issue_log[0][-1][0]
        assert dep_final == load_issue + 13
        assert sim.stats.committed_uops == len(uops)


class TestIssueCycleLoss:
    def test_one_lost_cycle_per_event(self):
        cfg = spec_config(delay=4)
        uops = [load(0x1000, dst=4, pc=0x100), alu([4], 5)]
        sim = trace_sim(uops, cfg, l2=[0x1000])
        run_to_completion(sim)
        assert sim.stats.issue_cycles_lost == sim.stats.squash_events_miss \
            + sim.stats.squash_events_bank == 1


class TestConservativeLoadInWindow:
    def test_conservative_load_squashed_and_reissued(self):
        """Mixing policies: a conservatively handled load caught in the
        squash window of a speculative load replays cleanly from the IQ."""
        from repro.common.config import HitMissPolicy
        cfg = spec_config(delay=4, hit_miss=HitMissPolicy.FILTER_CTR)
        # Train the filter so pc 0x200 is a sure miss (conservative).
        uops = []
        for i in range(3):
            uops.append(load(0x4000, dst=4, pc=0x200))
            uops.append(alu([4], 5, pc=0x300 + i))
        sim = trace_sim(uops, cfg, l2=[0x4000])
        run_to_completion(sim)
        assert sim.stats.committed_uops == len(uops)
