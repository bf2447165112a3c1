"""Property-based tests on the memory substrates."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, DramConfig
from repro.memory.banks import BankScheduler, bank_of
from repro.memory.cache import SetAssocCache
from repro.memory.dram import DdrModel
from repro.memory.mshr import MshrFile

addresses = st.integers(min_value=0, max_value=1 << 30)


class TestCacheProperties:
    @given(st.lists(addresses, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        c = SetAssocCache(CacheConfig(
            name="p", size_bytes=4 * 4 * 64, assoc=4, banks=0, banked=False))
        for a in addrs:
            c.fill(a)
        assert c.resident_lines() <= 16

    @given(st.lists(addresses, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_fill_then_probe_hits(self, addrs):
        c = SetAssocCache(CacheConfig())
        for a in addrs:
            c.fill(a)
            assert c.probe(a)

    @given(st.lists(addresses, min_size=1, max_size=100), addresses)
    @settings(max_examples=50, deadline=None)
    def test_eviction_only_within_same_set(self, addrs, probe_addr):
        """Filling can only evict lines that map to the same set."""
        c = SetAssocCache(CacheConfig(
            name="p", size_bytes=2 * 8 * 64, assoc=2, banks=0, banked=False))
        c.fill(probe_addr)
        for a in addrs:
            if (c.line_addr(a) ^ c.line_addr(probe_addr)) % c.num_sets:
                c.fill(a)
        assert c.probe(probe_addr)

    @given(st.lists(addresses, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_lookup_never_allocates(self, addrs):
        c = SetAssocCache(CacheConfig())
        assert not any(c.lookup(a) for a in addrs)
        assert c.resident_lines() == 0


class TestBankProperties:
    @given(st.lists(st.tuples(addresses, st.integers(0, 3)), max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_at_most_two_services_per_cycle(self, reqs):
        """The schedule never exceeds 2 accesses/cycle nor 1 access per
        bank per cycle (same-set pairs aside)."""
        b = BankScheduler()
        now = 0
        per_cycle = {}
        per_bank_cycle = {}
        for addr, gap in reqs:
            now += gap
            delay = b.access(addr, now)
            assert delay >= 0
            cyc = now + delay
            per_cycle[cyc] = per_cycle.get(cyc, 0) + 1
            key = (bank_of(addr, 8), cyc)
            per_bank_cycle[key] = per_bank_cycle.get(key, 0) + 1
        assert all(v <= 2 for v in per_cycle.values())
        assert all(v <= 2 for v in per_bank_cycle.values())

    @given(st.lists(addresses, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_unbanked_never_delays(self, addrs):
        b = BankScheduler(banked=False)
        assert all(b.access(a, 5) == 0 for a in addrs)


class TestMshrProperties:
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 500)),
                    max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_capacity_invariant(self, reqs):
        m = MshrFile(8)
        now = 0
        for line, ready_in in reqs:
            now += 1
            m.allocate(line, now + ready_in, now)
            assert len(m) <= 8


class TestDramProperties:
    @given(st.lists(st.tuples(st.integers(0, 4096), st.integers(0, 50)),
                    min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_latency_band(self, reqs):
        d = DdrModel(DramConfig())
        now = 0
        for line, gap in reqs:
            now += gap
            lat = d.read(line, now)
            assert 75 <= lat <= 185
