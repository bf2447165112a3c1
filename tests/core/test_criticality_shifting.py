from repro.core.criticality import CriticalityPredictor
from repro.core.shifting import ScheduleShifter


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

    def test_update_counter(self):
        p = CriticalityPredictor()
        p.train(1, True)
        p.train(2, False)
        assert p.updates == 2


class TestScheduleShifter:
    def test_first_load_unshifted(self):
        s = ScheduleShifter(enabled=True)
        assert s.promised_latency(4, loads_already_this_cycle=0) == 4

    def test_second_load_shifted(self):
        s = ScheduleShifter(enabled=True)
        assert s.promised_latency(4, loads_already_this_cycle=1) == 5
        assert s.shifted == 1

    def test_disabled_never_shifts(self):
        s = ScheduleShifter(enabled=False)
        assert s.promised_latency(4, 1) == 4
        assert s.shifted == 0
