import pytest

from repro.rename.freelist import FreeList


def test_reserved_registers_not_on_list():
    fl = FreeList(0, 8, reserved=3)
    assert len(fl) == 5
    allocated = {fl.allocate() for _ in range(5)}
    assert allocated == {3, 4, 5, 6, 7}


def test_allocate_release_roundtrip():
    fl = FreeList(10, 4)
    a = fl.allocate()
    fl.release(a)
    assert len(fl) == 4


def test_exhaustion():
    fl = FreeList(0, 2)
    fl.allocate()
    fl.allocate()
    assert fl.empty
    with pytest.raises(IndexError):
        fl.allocate()


def test_release_out_of_range_rejected():
    fl = FreeList(10, 4)
    with pytest.raises(ValueError):
        fl.release(9)
    with pytest.raises(ValueError):
        fl.release(14)


def test_reserved_larger_than_pool_rejected():
    with pytest.raises(ValueError):
        FreeList(0, 2, reserved=3)


def test_fifo_recycling():
    fl = FreeList(0, 3)
    a = fl.allocate()
    b = fl.allocate()
    fl.release(a)
    fl.release(b)
    c = fl.allocate()
    assert c != a or len(fl) >= 0     # FIFO: remaining reg first
    # After draining, released regs come back in release order.
    fl2 = FreeList(0, 1)
    x = fl2.allocate()
    fl2.release(x)
    assert fl2.allocate() == x
