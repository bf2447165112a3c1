"""The assembled memory hierarchy: banked L1D -> L2 (+prefetcher) -> DRAM.

The pipeline interacts with memory exclusively through
:meth:`MemoryHierarchy.load` and :meth:`MemoryHierarchy.store`, called when
a memory µop reaches its Execute stage. ``load`` returns a
:class:`LoadOutcome` giving the *actual* load-to-use latency — nominal
(4 cycles) plus any bank-conflict delay, or the L2/DRAM round trip on a
miss. The scheduler compares it against the latency it *promised* when it
speculatively woke dependents; a shortfall triggers a replay.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MemoryConfig
from repro.common.stats import SimStats
from repro.memory.banks import BankScheduler
from repro.memory.cache import SetAssocCache
from repro.memory.dram import DdrModel
from repro.memory.mshr import MshrFile
from repro.memory.prefetcher import StridePrefetcher


class LoadOutcome:
    """Result of one load's cache access."""

    __slots__ = ("hit", "bank_delay", "latency", "merged")

    def __init__(self, hit: bool, bank_delay: int, latency: int,
                 merged: bool = False) -> None:
        self.hit = hit                  # L1 hit (possibly after a bank delay)
        self.bank_delay = bank_delay    # cycles lost to a bank conflict
        self.latency = latency          # actual load-to-use latency
        self.merged = merged            # merged into an in-flight MSHR

    def __repr__(self) -> str:  # pragma: no cover
        return (f"LoadOutcome(hit={self.hit}, bank_delay={self.bank_delay}, "
                f"latency={self.latency}, merged={self.merged})")


class MemoryHierarchy:
    """L1D + L2 + DRAM with MSHR merging and an L2 stride prefetcher."""

    def __init__(self, config: MemoryConfig, stats: Optional[SimStats] = None) -> None:
        config.validate()
        self.config = config
        self.stats = stats if stats is not None else SimStats()
        self.l1d = SetAssocCache(config.l1d)
        self.l2 = SetAssocCache(config.l2)
        self.banks = BankScheduler(
            num_banks=config.l1d.banks or 8,
            line_bytes=config.l1d.line_bytes,
            num_sets=config.l1d.num_sets,
            banked=config.l1d.banked,
        )
        self.l1_mshrs = MshrFile(config.l1d.mshrs)
        self.l2_mshrs = MshrFile(config.l2.mshrs)
        self.prefetcher = StridePrefetcher(
            degree=config.prefetcher_degree,
            table_entries=config.prefetcher_table_entries,
            line_bytes=config.l2.line_bytes,
        )
        self.dram = DdrModel(config.dram)

    # ------------------------------------------------------------------

    @property
    def l1_hit_latency(self) -> int:
        """Nominal load-to-use latency on an L1 hit (Table 1: 4 cycles)."""
        return self.config.l1d.latency

    def load(self, addr: int, pc: int, now: int) -> LoadOutcome:
        """Perform a load's data access starting at cycle ``now``."""
        stats = self.stats
        stats.l1d_accesses += 1
        bank_delay = self.banks.access(addr, now)
        if bank_delay:
            stats.l1d_bank_conflicts += 1
        access_at = now + bank_delay
        line = self.l1d.line_addr(addr)

        # A refill may still be in flight even though the directory entry
        # exists (lines are installed at request time, data arrives at the
        # MSHR completion): such accesses are secondary misses that ride
        # the in-flight refill, not 4-cycle hits.
        inflight = self.l1_mshrs.lookup(line)
        if inflight is not None and inflight > access_at:
            stats.l1d_misses += 1
            self.l1d.lookup(addr)     # touch LRU
            latency = max(self.l1_hit_latency + bank_delay, inflight - now)
            return LoadOutcome(hit=False, bank_delay=bank_delay,
                               latency=latency, merged=True)

        if self.l1d.lookup(addr):
            return LoadOutcome(hit=True, bank_delay=bank_delay,
                               latency=self.l1_hit_latency + bank_delay)

        stats.l1d_misses += 1
        extra = self._access_l2(addr, pc, access_at)
        latency = bank_delay + extra
        self.l1_mshrs.allocate(line, now + latency, now)
        self.l1d.fill(addr)
        return LoadOutcome(hit=False, bank_delay=bank_delay, latency=latency)

    def store(self, addr: int, pc: int, now: int) -> None:
        """Perform a store's data access (write-allocate; no replays).

        Stores do not wake dependents and, per Table 1 (2R/2W ports), do not
        contend with loads for data banks, so only cache state is updated.
        """
        self.stats.bump("store_accesses")
        if self.l1d.lookup(addr):
            return
        self.stats.bump("store_l1_misses")
        if not self.l2.lookup(addr):
            self.stats.bump("store_l2_misses")
            self.l2.fill(addr)
        self.l1d.fill(addr)

    # ------------------------------------------------------------------

    def _access_l2(self, addr: int, pc: int, now: int) -> int:
        """L2 access for an L1 refill; returns extra load-to-use cycles."""
        stats = self.stats
        stats.l2_accesses += 1
        line = self.l2.line_addr(addr)
        self._train_prefetcher(pc, addr, now)

        inflight = self.l2_mshrs.lookup(line)
        if inflight is not None and inflight > now:
            stats.l2_misses += 1
            self.l2.lookup(addr)
            return self.config.l2.latency + max(0, inflight - now)

        if self.l2.lookup(addr):
            self.prefetcher.note_demand_hit(line)
            return self.config.l2.latency

        stats.l2_misses += 1
        stats.dram_reads += 1
        dram_latency = self.dram.read(line, now + self.config.l2.latency)
        total = self.config.l2.latency + dram_latency
        self.l2_mshrs.allocate(line, now + total, now)
        self.l2.fill(addr)
        return total

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        """Assembled-hierarchy state (stats counters are owned by the
        simulator-level :class:`SimStats`, not duplicated here)."""
        return {
            "l1d": self.l1d.state_dict(),
            "l2": self.l2.state_dict(),
            "banks": self.banks.state_dict(),
            "l1_mshrs": self.l1_mshrs.state_dict(),
            "l2_mshrs": self.l2_mshrs.state_dict(),
            "prefetcher": self.prefetcher.state_dict(),
            "dram": self.dram.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.l1d.load_state_dict(state["l1d"])
        self.l2.load_state_dict(state["l2"])
        self.banks.load_state_dict(state["banks"])
        self.l1_mshrs.load_state_dict(state["l1_mshrs"])
        self.l2_mshrs.load_state_dict(state["l2_mshrs"])
        self.prefetcher.load_state_dict(state["prefetcher"])
        self.dram.load_state_dict(state["dram"])

    def _train_prefetcher(self, pc: int, addr: int, now: int) -> None:
        """Issue prefetches through the DRAM model.

        Prefetched lines are installed in the L2 directory immediately but
        their *data* arrives at the DRAM completion time, tracked by the L2
        MSHRs — a demand access that catches up with the prefetch stream
        waits out the remaining latency, and the prefetch traffic consumes
        real bank/bus bandwidth (this is what makes streaming workloads
        like lbm/libquantum memory-bandwidth-bound, as on the paper's
        machine).
        """
        for line in self.prefetcher.train_and_prefetch(pc, addr):
            line_byte_addr = line * self.config.l2.line_bytes
            if self.l2.probe(line_byte_addr) or \
                    self.l2_mshrs.lookup(line) is not None:
                continue
            dram_latency = self.dram.read(line, now)
            self.l2_mshrs.allocate(line, now + dram_latency, now)
            self.l2.fill(line_byte_addr)
            self.prefetcher.mark_prefetched(line)
        self.stats.prefetches_issued = self.prefetcher.issued
        self.stats.prefetches_useful = self.prefetcher.useful
