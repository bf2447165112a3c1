"""The scheduling policy's decision tree (Sections 5.1-5.3).

The tables are trained here the way the stages train them: Commit calls
``hm_filter.train`` on loads and ``crit.train`` on every µop, Bookkeep
calls ``global_ctr.observe_cycle`` on L1-access cycles.
"""

import pytest

from repro.common.config import HitMissPolicy, SchedPolicyConfig
from repro.core.policy import SchedulingPolicy
from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.workloads.suite import SUITE

PLAT = 4


def make(**kw):
    return SchedulingPolicy(SchedPolicyConfig(**kw), PLAT)


def tables(policy):
    return {name for name in ("global_ctr", "hm_filter", "crit")
            if getattr(policy, name) is not None}


class TestMechanismSet:
    def test_baseline_is_conservative(self):
        p = make(speculative=False)
        assert p.decide(0x10, 0) is None
        assert tables(p) == set() and p.state_dict() == {}

    def test_conservative_ignores_mechanism_switches(self):
        p = make(speculative=False, hit_miss=HitMissPolicy.FILTER_CTR,
                 schedule_shifting=True)
        assert p.decide(0x10, 1) is None
        assert tables(p) == set() and not p.shift

    def test_plain_always_hit(self):
        p = make()
        assert p.decide(0x10, 0) == PLAT
        assert tables(p) == set()

    @pytest.mark.parametrize("kw, expected", [
        (dict(schedule_shifting=True), set()),
        (dict(hit_miss=HitMissPolicy.GLOBAL_CTR), {"global_ctr"}),
        (dict(hit_miss=HitMissPolicy.FILTER_CTR), {"global_ctr", "hm_filter"}),
        (dict(hit_miss=HitMissPolicy.FILTER_CTR, criticality=True),
         {"global_ctr", "hm_filter", "crit"}),
    ])
    def test_only_configured_tables_exist(self, kw, expected):
        p = make(**kw)
        assert tables(p) == expected
        assert set(p.state_dict()) == expected


class TestShiftingComposition:
    def test_second_load_promise(self):
        p = make(schedule_shifting=True)
        assert p.decide(0x10, 0) == PLAT
        assert p.decide(0x10, 1) == PLAT + 1
        assert p.stats.shifted_loads == 1

    def test_no_shift_when_disabled(self):
        p = make(hit_miss=HitMissPolicy.GLOBAL_CTR)
        assert p.decide(0x10, 1) == PLAT
        assert p.stats.shifted_loads == 0

    def test_stalled_load_is_not_shifted(self):
        p = make(hit_miss=HitMissPolicy.GLOBAL_CTR, schedule_shifting=True)
        for _ in range(4):
            p.global_ctr.observe_cycle(True)
        assert p.decide(0x10, 1) is None
        assert p.stats.shifted_loads == 0


class TestGlobalCtrGating:
    def test_miss_cycles_stall_speculation(self):
        p = make(hit_miss=HitMissPolicy.GLOBAL_CTR)
        assert p.decide(0x10, 0) == PLAT
        for _ in range(4):
            p.global_ctr.observe_cycle(True)
        assert p.decide(0x10, 0) is None
        for _ in range(8):
            p.global_ctr.observe_cycle(False)
        assert p.decide(0x10, 0) == PLAT

    def test_always_hit_has_no_counter(self):
        p = make(schedule_shifting=True)     # hit_miss stays ALWAYS_HIT
        assert p.global_ctr is None
        assert p.decide(0x10, 0) == PLAT


class TestFilterGating:
    def test_sure_hit_overrides_counter(self):
        p = make(hit_miss=HitMissPolicy.FILTER_CTR)
        p.hm_filter.train(0x10, True)
        for _ in range(10):
            p.global_ctr.observe_cycle(True)      # counter says stall
        assert p.decide(0x10, 0) == PLAT
        assert p.stats.filter_sure_hit == 1

    def test_sure_miss_stalls_despite_counter(self):
        p = make(hit_miss=HitMissPolicy.FILTER_CTR)
        for _ in range(2):
            p.hm_filter.train(0x10, False)
        assert p.decide(0x10, 0) is None
        assert p.stats.filter_sure_miss == 1

    def test_deferred_uses_counter(self):
        p = make(hit_miss=HitMissPolicy.FILTER_CTR)
        assert p.decide(0x50, 0) == PLAT           # fresh: defer + ctr hi
        for _ in range(4):
            p.global_ctr.observe_cycle(True)
        assert p.decide(0x50, 0) is None
        assert p.stats.filter_deferred == 2


class TestCriticalityGating:
    def _crit_policy(self):
        return make(hit_miss=HitMissPolicy.FILTER_CTR, criticality=True,
                    schedule_shifting=True)

    @staticmethod
    def _commit(p, pc, hit, critical):
        p.hm_filter.train(pc, hit)
        p.crit.train(pc, critical)

    def test_noncritical_unsure_load_stalls(self):
        p = self._crit_policy()
        # Keep the filter unsure for 0x30 by alternating outcomes.
        for i in range(8):
            self._commit(p, 0x30, hit=(i % 2 == 0), critical=False)
        assert p.decide(0x30, 0) is None
        assert p.stats.crit_predicted_noncritical >= 1

    def test_critical_unsure_load_uses_counter(self):
        p = self._crit_policy()
        for i in range(8):
            self._commit(p, 0x30, hit=(i % 2 == 0), critical=True)
        assert p.decide(0x30, 0) == PLAT           # counter still high

    def test_sure_hit_bypasses_criticality(self):
        p = self._crit_policy()
        for _ in range(3):
            self._commit(p, 0x40, hit=True, critical=False)
        assert p.decide(0x40, 0) == PLAT


def _machine(name):
    sim = Simulator(make_config(name), SUITE["gzip"].build_trace(1))
    sim.run(max_uops=1500)
    return sim


class TestStateProtocol:
    def test_round_trip(self):
        source = _machine("SpecSched_4_Crit")
        target = SchedulingPolicy(make_config("SpecSched_4_Crit").sched, PLAT)
        target.load_state_dict(source.policy.state_dict())
        assert target.state_dict() == source.policy.state_dict()

    @pytest.mark.parametrize("source, target", [
        ("SpecSched_4_Combined", "SpecSched_4_Crit"),
        ("SpecSched_4_Shift", "SpecSched_4_Filter"),
    ])
    def test_other_mechanism_set_refused_before_any_change(self, source, target):
        saved = _machine(source).state_dict()
        machine = _machine(target)
        before = machine.policy.state_dict()
        with pytest.raises(ValueError, match="policy tables"):
            machine.load_state_dict(saved)
        assert machine.policy.state_dict() == before

    def test_other_table_size_refused(self):
        saved = _machine("SpecSched_4_Filter").policy.state_dict()
        policy = make(hit_miss=HitMissPolicy.FILTER_CTR, filter_entries=1024)
        before = policy.state_dict()
        with pytest.raises(ValueError, match="policy tables"):
            policy.load_state_dict(saved)
        assert policy.state_dict() == before
