from repro.common.config import MemoryConfig
from repro.memory.hierarchy import MemoryHierarchy


def make(banked=True):
    cfg = MemoryConfig()
    if not banked:
        import dataclasses
        cfg = dataclasses.replace(
            cfg, l1d=dataclasses.replace(cfg.l1d, banked=False))
    return MemoryHierarchy(cfg)


class TestLoadLatencies:
    def test_l1_hit_is_load_to_use(self):
        h = make(banked=False)
        h.l1d.fill(0x1000)
        out = h.load(0x1000, pc=1, now=100)
        assert out.hit and out.latency == 4 and out.bank_delay == 0

    def test_l1_miss_l2_hit(self):
        h = make(banked=False)
        h.l2.fill(0x1000)
        out = h.load(0x1000, pc=1, now=100)
        assert not out.hit
        assert out.latency == 13

    def test_full_miss_reaches_dram(self):
        h = make(banked=False)
        out = h.load(0x100000, pc=1, now=100)
        assert not out.hit
        assert out.latency >= 13 + 75
        assert h.stats.dram_reads == 1

    def test_fill_after_miss(self):
        h = make(banked=False)
        h.load(0x2000, pc=1, now=0)
        assert h.l1d.probe(0x2000) and h.l2.probe(0x2000)

    def test_secondary_miss_merges(self):
        h = make(banked=False)
        a = h.load(0x3000, pc=1, now=0)
        b = h.load(0x3008, pc=2, now=1)       # same line, one cycle later
        assert b.merged
        assert b.latency <= a.latency
        assert h.stats.dram_reads == 1

    def test_bank_conflict_adds_delay(self):
        h = make(banked=True)
        h.l1d.fill(0x0 << 6 | 0x0)
        h.l1d.fill(0x1 << 6 | 0x0)
        a = h.load(0x000, pc=1, now=50)            # bank 0, set 0
        b = h.load(0x040, pc=2, now=50)            # bank 0, set 1
        assert a.latency == 4
        assert b.bank_delay == 1 and b.latency == 5
        assert h.stats.l1d_bank_conflicts == 1

    def test_dual_ported_no_conflicts(self):
        h = make(banked=False)
        h.l1d.fill(0x000)
        h.l1d.fill(0x040)
        a = h.load(0x000, pc=1, now=50)
        b = h.load(0x040, pc=2, now=50)
        assert a.latency == 4 and b.latency == 4


class TestStores:
    def test_store_allocates(self):
        h = make(banked=False)
        h.store(0x4000, pc=9, now=0)
        assert h.l1d.probe(0x4000) and h.l2.probe(0x4000)

    def test_store_does_not_touch_load_stats(self):
        h = make(banked=False)
        h.store(0x4000, pc=9, now=0)
        assert h.stats.l1d_accesses == 0
        assert h.stats.extra.get("store_accesses") == 1


class TestPrefetcher:
    def test_streaming_trains_prefetcher(self):
        h = make(banked=False)
        # Miss a long stride-1-line stream: prefetcher should start filling.
        for i in range(32):
            h.load(0x800000 + i * 64, pc=42, now=i * 400)
        assert h.prefetcher.issued > 0
        # With generous spacing the prefetched data has arrived: far-ahead
        # demand accesses hit in the L2 (the DRAM also serves the
        # prefetch traffic itself, so check demand-side L2 misses).
        assert h.stats.l2_misses < 8
        assert h.prefetcher.useful > 0

    def test_stats_forwarded(self):
        h = make(banked=False)
        for i in range(16):
            h.load(0x900000 + i * 64, pc=7, now=i * 30)
        assert h.stats.prefetches_issued == h.prefetcher.issued


class TestStatsPlumbing:
    def test_counters(self):
        h = make(banked=False)
        h.l1d.fill(0x1000)
        h.load(0x1000, pc=1, now=0)     # hit
        h.load(0x5000, pc=1, now=1)     # miss
        assert h.stats.l1d_accesses == 2
        assert h.stats.l1d_misses == 1
        assert h.stats.l2_accesses == 1
