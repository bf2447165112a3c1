from repro.common.config import SchedPolicyConfig
from repro.core.criticality import CriticalityPredictor
from repro.core.policy import SchedulingPolicy


class TestCriticality:
    def test_fresh_entry_predicts_critical(self):
        # Safe default: stalling a critical load costs performance.
        assert CriticalityPredictor().predict_critical(0x10)

    def test_learns_non_critical(self):
        p = CriticalityPredictor()
        p.train(0x10, was_critical=False)
        assert not p.predict_critical(0x10)

    def test_learns_critical(self):
        p = CriticalityPredictor()
        for _ in range(3):
            p.train(0x10, was_critical=False)
        for _ in range(4):
            p.train(0x10, was_critical=True)
        assert p.predict_critical(0x10)

    def test_saturation_bounds(self):
        p = CriticalityPredictor(ctr_bits=4)
        for _ in range(100):
            p.train(0x10, True)
        assert p._counters[p._index(0x10)] == 7
        for _ in range(100):
            p.train(0x10, False)
        assert p._counters[p._index(0x10)] == -8

    def test_hysteresis(self):
        """A deeply non-critical load needs sustained evidence to flip."""
        p = CriticalityPredictor()
        for _ in range(8):
            p.train(0x10, False)
        p.train(0x10, True)
        assert not p.predict_critical(0x10)    # one sample is not enough

    def test_direct_mapping(self):
        p = CriticalityPredictor(entries=8)
        p.train(0, False)
        assert p.predict_critical(8) is p.predict_critical(0)

class TestScheduleShifting:
    @staticmethod
    def _policy(enabled):
        return SchedulingPolicy(SchedPolicyConfig(schedule_shifting=enabled), 4)

    def test_first_load_unshifted(self):
        assert self._policy(True).decide(0x10, loads_before=0) == 4

    def test_second_load_shifted(self):
        p = self._policy(True)
        assert p.decide(0x10, loads_before=1) == 5
        assert p.stats.shifted_loads == 1

    def test_disabled_never_shifts(self):
        p = self._policy(False)
        assert p.decide(0x10, 1) == 4
        assert p.stats.shifted_loads == 0
