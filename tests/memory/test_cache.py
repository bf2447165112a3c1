import pytest

from repro.common.config import CacheConfig
from repro.memory.cache import SetAssocCache


def small_cache(assoc=2, sets=4, line=64):
    return SetAssocCache(CacheConfig(
        name="t", size_bytes=assoc * sets * line, assoc=assoc,
        line_bytes=line, latency=1, banks=0, banked=False))


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert not c.lookup(0x1000)
        c.fill(0x1000)
        assert c.lookup(0x1000)

    def test_same_line_offsets_hit(self):
        c = small_cache()
        c.fill(0x1000)
        assert c.probe(0x1008)
        assert c.probe(0x103F)
        assert not c.probe(0x1040)

    def test_probe_has_no_side_effects(self):
        c = small_cache(assoc=2, sets=1)
        assert not c.probe(0x40)
        assert c.resident_lines() == 0     # a probe never allocates
        c.fill(0)
        c.fill(64)
        assert c.probe(0)                  # no LRU refresh: 0 stays LRU
        assert c.fill(128) == 0


class TestLru:
    def test_lru_eviction_order(self):
        c = small_cache(assoc=2, sets=1)
        c.fill(0 * 64)
        c.fill(1 * 64)
        c.lookup(0 * 64)           # touch 0: 1 is now LRU
        victim = c.fill(2 * 64)
        assert victim == 1         # line address of the evicted line
        assert c.probe(0) and not c.probe(64) and c.probe(128)

    def test_fill_refreshes_lru(self):
        c = small_cache(assoc=2, sets=1)
        c.fill(0)
        c.fill(64)
        c.fill(0)                  # refresh 0
        c.fill(128)
        assert c.probe(0) and not c.probe(64)

    def test_capacity_respected(self):
        c = small_cache(assoc=2, sets=4)
        for i in range(64):
            c.fill(i * 64)
        assert c.resident_lines() == 8

    def test_set_isolation(self):
        c = small_cache(assoc=1, sets=4)
        c.fill(0 * 64)   # set 0
        c.fill(1 * 64)   # set 1
        assert c.probe(0) and c.probe(64)


class TestGeometry:
    def test_table1_l1d_geometry(self):
        c = SetAssocCache(CacheConfig())
        assert c.num_sets == 64

    def test_indexing_roundtrip(self):
        c = small_cache(assoc=2, sets=8)
        for addr in (0, 64, 512, 0x1234C0):
            c.fill(addr)
            assert c.probe(addr)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssocCache(CacheConfig(size_bytes=1000, assoc=3))
