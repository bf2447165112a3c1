import pytest

from repro.backend.lsq import LoadStoreQueue
from repro.backend.storesets import StoreSets
from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp


def ld(seq, addr, pc=0x10):
    return MicroOp(seq, pc, OpClass.LOAD, srcs=[1], dst=2, mem_addr=addr)


def st(seq, addr, pc=0x20):
    return MicroOp(seq, pc, OpClass.STORE, srcs=[1, 2], mem_addr=addr)


class TestStoreSets:
    def test_cold_predictor_predicts_independent(self):
        ss = StoreSets()
        assert ss.lookup_dependence(ld(5, 0x100)) is None

    def test_violation_creates_dependence(self):
        ss = StoreSets()
        ss.train_violation(store_pc=0x20, load_pc=0x10)
        store = st(1, 0x100)
        assert ss.lookup_dependence(store) is None   # no older store inflight
        load = ld(2, 0x100)
        assert ss.lookup_dependence(load) is store

    def test_store_done_clears_lfst(self):
        ss = StoreSets()
        ss.train_violation(0x20, 0x10)
        store = st(1, 0x100)
        ss.lookup_dependence(store)
        store.executed = True
        ss.store_done(store)
        assert ss.lookup_dependence(ld(2, 0x100)) is None

    def test_store_store_ordering(self):
        ss = StoreSets()
        ss.train_violation(0x20, 0x10)
        ss.train_violation(0x24, 0x10)     # merge both stores into one set
        s1 = st(1, 0x100, pc=0x20)
        s2 = st(2, 0x108, pc=0x24)
        assert ss.lookup_dependence(s1) is None
        assert ss.lookup_dependence(s2) is s1

    def test_merge_sets(self):
        ss = StoreSets()
        ss.train_violation(0x20, 0x10)
        ss.train_violation(0x24, 0x14)
        # Cross violation re-assigns both PCs to the same (smaller) set id.
        ss.train_violation(0x20, 0x14)
        store = st(1, 0x100, pc=0x20)
        ss.lookup_dependence(store)
        load = ld(2, 0x100, pc=0x14)
        assert ss.lookup_dependence(load) is store

    def test_executed_store_not_a_dependence(self):
        ss = StoreSets()
        ss.train_violation(0x20, 0x10)
        store = st(1, 0x100)
        ss.lookup_dependence(store)
        store.executed = True
        assert ss.lookup_dependence(ld(2, 0x100)) is None


class TestLsqOccupancy:
    def test_capacity_limits(self):
        lsq = LoadStoreQueue(lq_capacity=1, sq_capacity=1)
        lsq.insert(ld(0, 0))
        assert lsq.lq_full()
        with pytest.raises(OverflowError):
            lsq.insert(ld(1, 8))
        lsq.insert(st(2, 0))
        with pytest.raises(OverflowError):
            lsq.insert(st(3, 8))

    def test_non_memory_rejected(self):
        with pytest.raises(ValueError):
            LoadStoreQueue().insert(MicroOp(0, 0, OpClass.INT_ALU))

    def test_release_and_squash(self):
        lsq = LoadStoreQueue()
        a, b, c = ld(0, 0), st(1, 8), ld(2, 16)
        for u in (a, b, c):
            lsq.insert(u)
        doomed = lsq.squash_younger(0)
        assert {u.seq for u in doomed} == {1, 2}
        lsq.release(a)
        assert not lsq.loads and not lsq.stores


class TestForwarding:
    def test_forwards_from_youngest_older_executed_store(self):
        lsq = LoadStoreQueue()
        s1, s2 = st(1, 0x100), st(2, 0x100)
        s1.executed = s2.executed = True
        load = ld(3, 0x100)
        for u in (s1, s2, load):
            lsq.insert(u)
        assert lsq.forwarding_store(load) is s2

    def test_no_forward_from_younger_store(self):
        lsq = LoadStoreQueue()
        load = ld(1, 0x100)
        s = st(2, 0x100)
        s.executed = True
        lsq.insert(load)
        lsq.insert(s)
        assert lsq.forwarding_store(load) is None

    def test_no_forward_from_unexecuted_store(self):
        lsq = LoadStoreQueue()
        s = st(1, 0x100)
        load = ld(2, 0x100)
        lsq.insert(s)
        lsq.insert(load)
        assert lsq.forwarding_store(load) is None

    def test_quadword_granularity(self):
        lsq = LoadStoreQueue()
        s = st(1, 0x100)
        s.executed = True
        lsq.insert(s)
        same_q = ld(2, 0x104)      # same 8B quadword
        diff_q = ld(3, 0x108)
        lsq.insert(same_q)
        lsq.insert(diff_q)
        assert lsq.forwarding_store(same_q) is s
        assert lsq.forwarding_store(diff_q) is None


class TestViolationDetection:
    def test_younger_executed_load_violates(self):
        lsq = LoadStoreQueue()
        store = st(1, 0x200)
        early_load = ld(2, 0x200)
        early_load.executed = True
        lsq.insert(store)
        lsq.insert(early_load)
        assert lsq.detect_violation(store) is early_load

    def test_oldest_offender_chosen(self):
        lsq = LoadStoreQueue()
        store = st(1, 0x200)
        l2, l3 = ld(2, 0x200), ld(3, 0x200)
        l2.executed = l3.executed = True
        for u in (store, l2, l3):
            lsq.insert(u)
        assert lsq.detect_violation(store) is l2

    def test_unexecuted_load_is_safe(self):
        lsq = LoadStoreQueue()
        store = st(1, 0x200)
        load = ld(2, 0x200)
        lsq.insert(store)
        lsq.insert(load)
        assert lsq.detect_violation(store) is None

    def test_older_load_is_safe(self):
        lsq = LoadStoreQueue()
        load = ld(0, 0x200)
        load.executed = True
        store = st(1, 0x200)
        lsq.insert(load)
        lsq.insert(store)
        assert lsq.detect_violation(store) is None


class TestStoreDependenceWakeups:
    def test_waiter_woken_on_store_execute(self):
        woken = []
        lsq = LoadStoreQueue(on_ready=woken.append)
        store = st(1, 0x100)
        load = ld(2, 0x100)
        lsq.insert(store)
        lsq.insert(load)
        lsq.add_store_dependence(load, store)
        assert load.pending == 1 and load.store_dep is store
        store.executed = True
        lsq.store_executed_wakeups(store)
        assert woken == [load]
        assert load.pending == 0 and load.store_dep is None

    def test_dead_waiter_skipped(self):
        woken = []
        lsq = LoadStoreQueue(on_ready=woken.append)
        store = st(1, 0x100)
        load = ld(2, 0x100)
        lsq.insert(store)
        lsq.insert(load)
        lsq.add_store_dependence(load, store)
        load.dead = True
        lsq.store_executed_wakeups(store)
        assert not woken
