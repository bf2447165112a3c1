import pytest

from repro.frontend.btb import Btb
from repro.frontend.ras import ReturnAddressStack


class TestBtb:
    def test_miss_then_hit(self):
        b = Btb(entries=16, ways=2)
        assert b.lookup(0x100) is None
        b.install(0x100, 0x400)
        assert b.lookup(0x100) == 0x400

    def test_update_existing(self):
        b = Btb(entries=16, ways=2)
        b.install(0x100, 0x400)
        b.install(0x100, 0x500)
        assert b.lookup(0x100) == 0x500

    def test_way_lru_eviction(self):
        b = Btb(entries=2, ways=2)    # single set
        b.install(0x0, 1)
        b.install(0x4, 2)
        b.lookup(0x0)                 # refresh first
        b.install(0x8, 3)             # evicts 0x4
        assert b.lookup(0x0) == 1
        assert b.lookup(0x4) is None
        assert b.lookup(0x8) == 3

    def test_lookup_misses_until_installed(self):
        b = Btb(entries=16, ways=2)
        assert b.lookup(0x10) is None
        b.install(0x10, 0x20)
        assert b.lookup(0x10) == 0x20

    def test_geometry_rejected(self):
        with pytest.raises(ValueError):
            Btb(entries=10, ways=3)


class TestRas:
    def test_push_pop(self):
        r = ReturnAddressStack(8)
        r.push(0x100)
        r.push(0x200)
        assert r.pop() == 0x200
        assert r.pop() == 0x100

    def test_underflow_returns_zero(self):
        r = ReturnAddressStack(4)
        assert r.pop() == 0
        r.push(0x40)                 # an underflow leaves the stack usable
        assert r.pop() == 0x40
        assert r.pop() == 0

    def test_circular_overwrite(self):
        r = ReturnAddressStack(2)
        r.push(1)
        r.push(2)
        r.push(3)              # overwrites 1; depth saturates at 2
        assert r.pop() == 3
        assert r.pop() == 2
        assert r.pop() == 0    # depth exhausted: underflow

    def test_snapshot_restore(self):
        r = ReturnAddressStack(4)
        r.push(10)
        snap = r.snapshot()
        r.push(20)
        r.pop()
        r.pop()
        r.restore(snap)
        assert r.pop() == 10

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(0)
