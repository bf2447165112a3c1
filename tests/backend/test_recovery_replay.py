import pytest

from repro.backend.recovery import RecoveryBuffer
from repro.backend.replay import ReplayController, ReplayEvent
from repro.common.stats import CAUSE_BANK_CONFLICT, CAUSE_L1_MISS
from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp


def op(seq):
    return MicroOp(seq, 0x10 + seq, OpClass.INT_ALU, srcs=[1], dst=2)


class TestRecoveryBuffer:
    def test_insert_remove(self):
        rb = RecoveryBuffer()
        u = op(0)
        rb.insert(u)
        assert u in rb and len(rb) == 1
        rb.remove(u)
        assert u not in rb

    def test_ready_requires_replay_pending(self):
        rb = RecoveryBuffer()
        u = op(0)
        rb.insert(u)
        rb.make_ready(u)             # not replay-pending: ignored
        assert rb.take_ready() == []
        u.replay_pending = True
        rb.make_ready(u)
        assert rb.take_ready() == [u]

    def test_ready_oldest_first(self):
        rb = RecoveryBuffer()
        uops = [op(i) for i in range(3)]
        for u in uops:
            u.replay_pending = True
            rb.insert(u)
        for u in reversed(uops):
            rb.make_ready(u)
        assert [u.seq for u in rb.take_ready()] == [0, 1, 2]

    def test_squash_leaves_no_dead_uop_on_the_ready_list(self):
        rb = RecoveryBuffer()
        uops = [op(i) for i in range(4)]
        for u in uops:
            u.replay_pending = True
            rb.insert(u)
            rb.make_ready(u)
        for u in uops[1:]:
            u.dead = True
        rb.squash_younger(0)
        assert rb.take_ready() == uops[:1]
        assert not any(u.in_ready for u in uops[1:])

    def test_squash_younger(self):
        rb = RecoveryBuffer()
        for i in range(4):
            rb.insert(op(i))
        doomed = rb.squash_younger(1)
        assert {u.seq for u in doomed} == {2, 3}
        assert len(rb) == 2


class TestReplayController:
    def test_window_contents(self):
        rc = ReplayController(delay=4)
        uops = {}
        for cycle in range(10):
            u = op(cycle)
            u.issue_cycle = cycle
            uops[cycle] = u
            rc.note_issue(u, cycle)
        doomed = rc.squashable_uops(9)
        # window is [9-4, 8] = cycles 5..8
        assert sorted(u.seq for u in doomed) == [5, 6, 7, 8]

    def test_executed_uops_not_squashed(self):
        rc = ReplayController(delay=2)
        u = op(0)
        u.issue_cycle = 5
        rc.note_issue(u, 5)
        u.executed = True
        assert rc.squashable_uops(6) == []

    def test_stale_issue_instance_not_squashed(self):
        rc = ReplayController(delay=2)
        u = op(0)
        u.issue_cycle = 5
        rc.note_issue(u, 5)
        u.issue_cycle = 9      # re-issued later: old group record stale
        assert rc.squashable_uops(6) == []

    def test_event_calendar(self):
        rc = ReplayController(delay=4)
        load = op(0)
        ev = ReplayEvent(load, CAUSE_L1_MISS, corrected_latency=17)
        rc.schedule(ev, detection_cycle=12)
        assert not rc.has_event(11)
        assert rc.has_event(12)
        assert rc.pop_events(12) == [ev]
        assert not rc.has_event(12)

    def test_events_sorted_oldest_trigger_first(self):
        rc = ReplayController(delay=4)
        young, old = op(9), op(3)
        rc.schedule(ReplayEvent(young, CAUSE_L1_MISS, 17), 10)
        rc.schedule(ReplayEvent(old, CAUSE_BANK_CONFLICT, 5), 10)
        events = rc.pop_events(10)
        assert events[0].load is old

    def test_bad_cause_rejected(self):
        with pytest.raises(ValueError):
            ReplayEvent(op(0), "gamma_ray", 5)

    def test_prune_bounds_window(self):
        rc = ReplayController(delay=2)
        for cycle in range(100):
            u = op(cycle)
            u.issue_cycle = cycle
            rc.note_issue(u, cycle)
            rc.prune(cycle)
        assert len(rc._window) <= 4
