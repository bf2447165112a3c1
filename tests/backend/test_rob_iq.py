import pytest

from repro.backend.iq import IssueQueue
from repro.backend.rob import ReorderBuffer
from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp


def op(seq, opclass=OpClass.INT_ALU):
    return MicroOp(seq, 0x10 + seq, opclass, srcs=[1], dst=2)


class TestRob:
    def test_fifo_retirement(self):
        rob = ReorderBuffer(8)
        uops = [op(i) for i in range(3)]
        for u in uops:
            rob.allocate(u)
        assert rob.head() is uops[0]
        assert rob.entries.popleft() is uops[0]     # Commit pops the head
        assert rob.head() is uops[1]

    def test_capacity(self):
        rob = ReorderBuffer(2)
        rob.allocate(op(0))
        rob.allocate(op(1))
        assert rob.full and rob.free_slots() == 0
        with pytest.raises(OverflowError):
            rob.allocate(op(2))

    def test_squash_younger_returns_youngest_first(self):
        rob = ReorderBuffer(8)
        uops = [op(i) for i in range(5)]
        for u in uops:
            rob.allocate(u)
        squashed = rob.squash_younger(1)
        assert [u.seq for u in squashed] == [4, 3, 2]
        assert len(rob) == 2

    def test_squash_inclusive(self):
        rob = ReorderBuffer(8)
        for i in range(4):
            rob.allocate(op(i))
        squashed = rob.squash_younger(2, inclusive=True)
        assert [u.seq for u in squashed] == [3, 2]

    def test_criticality_tag_head_only(self):
        rob = ReorderBuffer(8)
        a, b = op(0), op(1)
        rob.allocate(a)
        rob.allocate(b)
        rob.note_completed(b)
        assert not b.was_critical         # not at head
        rob.note_completed(a)
        assert a.was_critical             # at head when completed


class TestIq:
    def test_insert_release(self):
        iq = IssueQueue(4)
        u = op(0)
        iq.insert(u)
        assert u.in_iq and len(iq) == 1
        iq.release(u)
        assert not u.in_iq and len(iq) == 0

    def test_capacity(self):
        iq = IssueQueue(2)
        iq.insert(op(0))
        iq.insert(op(1))
        assert iq.full
        with pytest.raises(OverflowError):
            iq.insert(op(2))

    def test_ready_oldest_first(self):
        iq = IssueQueue(8)
        uops = [op(i) for i in range(4)]
        for u in uops:
            iq.insert(u)
        for u in reversed(uops):
            iq.make_ready(u)
        assert [u.seq for u in iq.take_ready()] == [0, 1, 2, 3]

    def test_make_ready_requires_occupancy(self):
        iq = IssueQueue(4)
        u = op(0)
        iq.make_ready(u)          # never inserted: ignored
        assert iq.take_ready() == []

    def test_squash_leaves_no_dead_uop_on_the_ready_list(self):
        """A squash kills µops and releases them in one step, so the
        ready list never holds a dead µop (select does not prune)."""
        iq = IssueQueue(8)
        uops = [op(i) for i in range(5)]
        for u in uops:
            iq.insert(u)
            iq.make_ready(u)
        for u in uops[2:]:
            u.dead = True             # as Execute._kill_uops marks them
        iq.squash_younger(1)
        assert iq.take_ready() == uops[:2]
        assert not any(u.in_ready for u in uops[2:])

    def test_squash_younger(self):
        iq = IssueQueue(8)
        uops = [op(i) for i in range(4)]
        for u in uops:
            iq.insert(u)
            iq.make_ready(u)
        doomed = iq.squash_younger(1)
        assert {u.seq for u in doomed} == {2, 3}
        assert {u.seq for u in iq.take_ready()} == {0, 1}

    def test_no_duplicate_ready(self):
        iq = IssueQueue(4)
        u = op(0)
        iq.insert(u)
        iq.make_ready(u)
        iq.make_ready(u)
        assert iq.take_ready() == [u]
