"""Property-based tests on the paper's predictors and the scheduling
policy built over them."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import HitMissPolicy, SchedPolicyConfig
from repro.common.stats import SimStats
from repro.core.criticality import CriticalityPredictor
from repro.core.global_ctr import GlobalHitMissCounter
from repro.core.hm_filter import FilterPrediction, HitMissFilter
from repro.core.policy import SchedulingPolicy
from repro.core.presets import PRESET_NAMES, make_config
from repro.frontend.ras import ReturnAddressStack

pcs = st.integers(min_value=0, max_value=1 << 20)


class TestGlobalCtrProperties:
    @given(st.lists(st.booleans(), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_value_stays_in_range(self, cycles):
        c = GlobalHitMissCounter()
        for miss in cycles:
            c.observe_cycle(miss)
            assert 0 <= c.value <= 15

    @given(st.lists(st.booleans(), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_quiet_period_always_restores_speculation(self, cycles):
        c = GlobalHitMissCounter()
        for miss in cycles:
            c.observe_cycle(miss)
        for _ in range(16):
            c.observe_cycle(False)
        assert c.predict_hit()


class TestFilterProperties:
    @given(st.lists(st.tuples(pcs, st.booleans()), max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_counters_bounded_and_prediction_total(self, trains):
        f = HitMissFilter(entries=64, reset_interval=50)
        for pc, hit in trains:
            f.train(pc, hit)
            assert all(0 <= ctr <= f.ctr_max for ctr in f._counters)
            assert f.predict(pc) in (FilterPrediction.SURE_HIT,
                                     FilterPrediction.SURE_MISS,
                                     FilterPrediction.DEFER)

    @given(pcs, st.integers(min_value=1, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_consistent_behaviour_never_sure_wrong(self, pc, n):
        """A load that always hits must never be predicted sure-miss."""
        f = HitMissFilter(entries=64)
        for _ in range(n):
            f.train(pc, hit=True)
        assert f.predict(pc) is not FilterPrediction.SURE_MISS


class TestCriticalityProperties:
    @given(st.lists(st.tuples(pcs, st.booleans()), max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_counters_bounded(self, trains):
        p = CriticalityPredictor(entries=32)
        for pc, crit in trains:
            p.train(pc, crit)
        assert all(p.ctr_min <= c <= p.ctr_max for c in p._counters)


class TestShifterProperties:
    @given(st.integers(1, 10), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_promise_never_below_base(self, base, position):
        p = SchedulingPolicy(SchedPolicyConfig(schedule_shifting=True), base)
        assert base <= p.decide(0x10, position) <= base + 1


class _ReferencePolicy:
    """The per-class decision tree the one policy replaced, transcribed
    as the oracle: a conservative class, an Always-Hit class, and a
    composed class that always builds the global counter (trained only
    when ``hit_miss`` gates on it) and shifts in a separate shifter."""

    def __init__(self, sched, load_to_use, stats):
        self.sched = sched
        self.load_to_use = load_to_use
        self.stats = stats
        self.kind = ("conservative" if not sched.speculative else
                     "always_hit" if (sched.hit_miss == HitMissPolicy.ALWAYS_HIT
                                      and not sched.schedule_shifting
                                      and not sched.criticality) else
                     "composed")
        self.global_ctr = GlobalHitMissCounter(
            sched.global_ctr_bits, sched.global_ctr_dec, sched.global_ctr_inc)
        self.hm_filter = None
        self.crit = None
        if self.kind == "composed" and sched.hit_miss == HitMissPolicy.FILTER_CTR:
            self.hm_filter = HitMissFilter(
                sched.filter_entries, sched.filter_ctr_bits,
                sched.filter_reset_interval, use_silence_bit=sched.filter_silence_bit)
        if self.kind == "composed" and sched.criticality:
            self.crit = CriticalityPredictor(sched.crit_entries, sched.crit_ctr_bits)

    def decide(self, pc, loads_already_this_cycle):
        """``(speculate, promised_latency)``."""
        if self.kind == "conservative":
            return False, self.load_to_use
        if self.kind == "always_hit":
            return True, self.load_to_use
        speculate = self._should_speculate(pc)
        promised = self.load_to_use
        if speculate and self.sched.schedule_shifting and loads_already_this_cycle >= 1:
            promised += 1
        if promised > self.load_to_use:
            self.stats.shifted_loads += 1
        return speculate, promised

    def _should_speculate(self, pc):
        stats = self.stats
        if self.hm_filter is not None:
            pred = self.hm_filter.predict(pc)
            if pred is FilterPrediction.SURE_HIT:
                stats.filter_sure_hit += 1
                return True
            if pred is FilterPrediction.SURE_MISS:
                stats.filter_sure_miss += 1
                return False
            stats.filter_deferred += 1
        if self.crit is not None:
            if self.crit.predict_critical(pc):
                stats.crit_predicted_critical += 1
            else:
                stats.crit_predicted_noncritical += 1
                return False
        if self.sched.hit_miss == HitMissPolicy.ALWAYS_HIT:
            return True
        return self.global_ctr.predict_hit()

    def on_cycle(self, miss, access):
        if (self.kind == "composed" and access
                and self.sched.hit_miss != HitMissPolicy.ALWAYS_HIT):
            self.global_ctr.observe_cycle(miss)

    def on_commit(self, pc, is_load, hit, critical):
        if is_load and self.hm_filter is not None:
            self.hm_filter.train(pc, hit)
        if self.crit is not None:
            self.crit.train(pc, critical)


#: Every preset's mechanisms, at the paper's table sizes and with tables
#: small enough that aliasing and silence resets happen in a short stream.
_SCHEDS = [make_config(name).sched for name in PRESET_NAMES]
_SCHEDS += [dataclasses.replace(sched, filter_entries=8, crit_entries=8,
                                filter_reset_interval=7) for sched in _SCHEDS]
_STAT_FIELDS = ("filter_sure_hit", "filter_sure_miss", "filter_deferred",
                "crit_predicted_critical", "crit_predicted_noncritical",
                "shifted_loads")

_events = st.lists(st.one_of(
    st.tuples(st.just("decide"), st.integers(0, 40), st.integers(0, 2)),
    st.tuples(st.just("commit"), st.integers(0, 40), st.booleans(),
              st.booleans(), st.booleans()),
    st.tuples(st.just("cycle"), st.booleans(), st.booleans()),
), max_size=300)


class TestPolicyEquivalence:
    """The one policy decides as the replaced class tree did, trained
    the way the stages train it: Commit calls the filter on loads and the
    criticality table on every µop, Bookkeep the counter on L1-access
    cycles, and only when the table exists."""

    @pytest.mark.parametrize("index", range(len(_SCHEDS)),
                             ids=[f"{name}{suffix}" for suffix in ("", "-small")
                                  for name in PRESET_NAMES])
    @given(events=_events)
    @settings(max_examples=25, deadline=None)
    def test_decisions_and_stats_match_reference(self, index, events):
        sched = _SCHEDS[index]
        ref = _ReferencePolicy(sched, 4, SimStats())
        new = SchedulingPolicy(sched, 4, SimStats())
        for event in events:
            if event[0] == "decide":
                _, pc, loads_before = event
                speculate, promised = ref.decide(pc, loads_before)
                assert new.decide(pc, loads_before) == (promised if speculate else None)
            elif event[0] == "commit":
                _, pc, is_load, hit, critical = event
                ref.on_commit(pc, is_load, hit, critical)
                if is_load and new.hm_filter is not None:
                    new.hm_filter.train(pc, hit)
                if new.crit is not None:
                    new.crit.train(pc, critical)
            else:
                _, miss, access = event
                ref.on_cycle(miss, access)
                if access and new.global_ctr is not None:
                    new.global_ctr.observe_cycle(miss)
        for name in _STAT_FIELDS:
            assert getattr(new.stats, name) == getattr(ref.stats, name), name


class TestRasProperties:
    @given(st.lists(st.one_of(
        st.tuples(st.just("push"), st.integers(1, 1 << 20)),
        st.tuples(st.just("pop"), st.just(0)),
    ), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_stack_within_depth(self, ops):
        """While nesting stays within capacity, the RAS behaves exactly
        like an unbounded stack."""
        ras = ReturnAddressStack(16)
        ref = []
        for op, val in ops:
            if op == "push":
                ras.push(val)
                ref.append(val)
                if len(ref) > 16:
                    ref.pop(0)
            else:
                expected = ref.pop() if ref else 0
                assert ras.pop() == expected
