import pytest

from repro.memory.mshr import MshrFile


def test_allocate_and_lookup():
    m = MshrFile(4)
    done = m.allocate(0x10, ready_cycle=100, now=0)
    assert done == 100
    assert m.lookup(0x10) == 100
    assert m.lookup(0x11) is None


def test_merge_returns_primary_completion():
    m = MshrFile(4)
    m.allocate(0x10, 100, now=0)
    assert m.allocate(0x10, 150, now=5) == 100
    assert len(m) == 1 and m.lookup(0x10) == 100


def test_expiry():
    m = MshrFile(4)
    m.allocate(0x10, 100, now=0)
    m.expire(99)
    assert m.lookup(0x10) == 100
    m.expire(100)
    assert m.lookup(0x10) is None


def test_capacity_pressure_serializes():
    m = MshrFile(2)
    m.allocate(1, 50, now=0)
    m.allocate(2, 60, now=0)
    done = m.allocate(3, 55, now=0)
    assert done >= 51          # waits behind the earliest completion
    assert len(m) == 2


def test_len_tracks_inflight():
    m = MshrFile(8)
    for i in range(5):
        m.allocate(i, 100 + i, now=0)
    assert len(m) == 5


def test_invalid_capacity():
    with pytest.raises(ValueError):
        MshrFile(0)
