"""Simulator configuration — a faithful encoding of the paper's Table 1.

The default :class:`SimConfig` reproduces the baseline machine of Perais et
al. (ISCA 2015): an aggressive 4 GHz, 8-wide-frontend / 6-issue superscalar
with a 192-entry ROB, 60-entry unified IQ, banked 32KB L1D, 1MB L2 with a
stride prefetcher, and a DDR3-1600-like memory with a 75-cycle minimum read
latency.

Configurations differ along three axes explored by the paper:

* ``issue_to_execute_delay`` (the paper's *issue-to-execute delay*, 0-6);
* whether scheduling is speculative (``SchedPolicyConfig.speculative``) and
  which replay-avoidance mechanisms are enabled (shifting / hit-miss
  filtering / criticality);
* whether the L1D is banked (bank conflicts possible) or ideally
  dual-ported.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Dict

from repro.common.mathutil import is_pow2
from repro.common.serialize import dataclass_from_dict, stable_hash

#: Fetch-to-commit latency of the Baseline_0 machine (Section 3.1).
FETCH_TO_COMMIT_CYCLES = 19
#: Frontend depth of the Baseline_0 machine (Section 3.1).
BASE_FRONTEND_DEPTH = 15
#: Minimum branch misprediction penalty kept constant across delays.
BRANCH_MISS_PENALTY = 20


@dataclass(frozen=True)
class BranchPredictorConfig:
    """TAGE-lite predictor + BTB + RAS (Table 1 front end)."""

    num_tagged_tables: int = 6
    table_entries: int = 1024
    tag_bits: int = 11
    min_history: int = 4
    max_history: int = 128
    bimodal_entries: int = 8192
    btb_entries: int = 8192
    btb_ways: int = 2
    ras_entries: int = 32

    def validate(self) -> None:
        if self.num_tagged_tables < 1:
            raise ValueError("TAGE needs at least one tagged table")
        if not is_pow2(self.table_entries) or not is_pow2(self.bimodal_entries):
            raise ValueError("predictor table sizes must be powers of two")
        if self.min_history < 1 or self.max_history <= self.min_history:
            raise ValueError("invalid TAGE history range")
        if not is_pow2(self.btb_entries):
            raise ValueError("BTB entries must be a power of two")


@dataclass(frozen=True)
class CacheConfig:
    """One level of a set-associative, LRU, 64B-line cache."""

    name: str = "L1D"
    size_bytes: int = 32 * 1024
    assoc: int = 8
    line_bytes: int = 64
    latency: int = 4          # load-to-use for L1D; access latency otherwise
    mshrs: int = 64
    banks: int = 8            # quadword-interleaved data banks (L1D only)
    banked: bool = True       # False models the ideal dual-ported L1D

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    def validate(self) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc) != 0:
            raise ValueError(f"{self.name}: size not divisible by line*assoc")
        if not is_pow2(self.num_sets):
            raise ValueError(f"{self.name}: number of sets must be a power of two")
        if not is_pow2(self.line_bytes):
            raise ValueError(f"{self.name}: line size must be a power of two")
        if self.banks and not is_pow2(self.banks):
            raise ValueError(f"{self.name}: bank count must be a power of two")
        if self.latency < 1:
            raise ValueError(f"{self.name}: latency must be >= 1")


@dataclass(frozen=True)
class DramConfig:
    """Single-channel DDR3-1600-like memory, calibrated to Table 1.

    The paper quotes a 75-cycle minimum and 185-cycle maximum read latency
    at 4 GHz. We model per-bank open-page row buffers: a row hit pays
    ``base_latency``; a row miss additionally pays ``row_miss_penalty``;
    queueing behind the shared data bus adds ``bus_cycles`` per in-flight
    access.
    """

    ranks: int = 2
    banks_per_rank: int = 8
    row_bytes: int = 8192
    base_latency: int = 75        # controller + tCL + burst, CPU cycles
    row_miss_penalty: int = 55    # tRP + tRCD at 11-11-11, CPU cycles
    bus_cycles: int = 20          # 64B over an 8B DDR3-1600 bus at 4 GHz
    max_latency: int = 185

    @property
    def num_banks(self) -> int:
        return self.ranks * self.banks_per_rank

    def validate(self) -> None:
        if self.base_latency < 1 or self.row_miss_penalty < 0:
            raise ValueError("invalid DRAM latencies")
        if not is_pow2(self.row_bytes):
            raise ValueError("row size must be a power of two")
        if self.max_latency < self.base_latency:
            raise ValueError("max_latency below base_latency")


@dataclass(frozen=True)
class MemoryConfig:
    """L1D + L2 + DRAM (Table 1, Caches & Memory rows)."""

    l1d: CacheConfig = field(default_factory=CacheConfig)
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            name="L2", size_bytes=1024 * 1024, assoc=16, latency=13,
            mshrs=64, banks=0, banked=False,
        )
    )
    dram: DramConfig = field(default_factory=DramConfig)
    prefetcher_degree: int = 8     # L2 stride prefetcher, degree 8
    prefetcher_table_entries: int = 256

    def validate(self) -> None:
        self.l1d.validate()
        self.l2.validate()
        self.dram.validate()
        if self.prefetcher_degree < 0:
            raise ValueError("prefetcher degree must be >= 0")


@dataclass(frozen=True)
class CoreConfig:
    """Pipeline dimensions (Table 1, Front End & Execution rows)."""

    fetch_width: int = 8
    rename_width: int = 8
    issue_width: int = 6
    retire_width: int = 8
    rob_entries: int = 192
    iq_entries: int = 60
    lq_entries: int = 72
    sq_entries: int = 48
    int_prf: int = 256
    fp_prf: int = 256
    num_alu: int = 4
    num_muldiv: int = 1
    num_fp: int = 2
    num_fpmuldiv: int = 2
    num_load_ports: int = 2
    num_store_ports: int = 1
    issue_to_execute_delay: int = 4
    store_set_ssid_entries: int = 1024
    store_set_lfst_entries: int = 1024

    @property
    def frontend_depth(self) -> int:
        """Frontend depth shrinks as the issue-to-execute delay grows.

        Section 3.1: Baseline_0 has a 15-cycle frontend and 4-cycle backend;
        Baseline_6 has a 9-cycle frontend and 10-cycle backend, keeping the
        minimum branch misprediction penalty at 20 cycles.
        """
        return BASE_FRONTEND_DEPTH - self.issue_to_execute_delay

    def validate(self) -> None:
        if not 0 <= self.issue_to_execute_delay <= 12:
            raise ValueError("issue-to-execute delay out of modeled range")
        if self.frontend_depth < 1:
            raise ValueError("frontend depth must remain >= 1")
        if self.issue_width < 1 or self.fetch_width < 1:
            raise ValueError("pipeline widths must be >= 1")
        if self.rob_entries < self.iq_entries:
            raise ValueError("ROB smaller than IQ makes no sense")
        if self.num_load_ports < 1:
            raise ValueError("need at least one load port")


class HitMissPolicy:
    """Symbolic names for the load hit/miss speculation policies (§5.2)."""

    ALWAYS_HIT = "always_hit"
    GLOBAL_CTR = "global_ctr"
    FILTER_CTR = "filter_ctr"

    ALL = (ALWAYS_HIT, GLOBAL_CTR, FILTER_CTR)


@dataclass(frozen=True)
class SchedPolicyConfig:
    """Which speculative-scheduling mechanisms are active (Sections 4-5)."""

    speculative: bool = True            # False => Baseline_* (conservative)
    hit_miss: str = HitMissPolicy.ALWAYS_HIT
    schedule_shifting: bool = False
    criticality: bool = False
    # Global counter (Alpha 21264 style): 4-bit, -2 on miss cycle, +1 otherwise.
    global_ctr_bits: int = 4
    global_ctr_dec: int = 2
    global_ctr_inc: int = 1
    # Per-PC filter: 2K entries of 2-bit counters + silence bit.
    filter_entries: int = 2048
    filter_ctr_bits: int = 2
    filter_reset_interval: int = 10_000   # committed loads between silence resets
    filter_silence_bit: bool = True       # False = plain-counter ablation (§5.2)
    # Criticality predictor: 8K entries of 4-bit signed counters.
    crit_entries: int = 8192
    crit_ctr_bits: int = 4

    def validate(self) -> None:
        if self.hit_miss not in HitMissPolicy.ALL:
            raise ValueError(f"unknown hit/miss policy {self.hit_miss!r}")
        if not is_pow2(self.filter_entries) or not is_pow2(self.crit_entries):
            raise ValueError("predictor table sizes must be powers of two")
        if self.criticality and not self.speculative:
            raise ValueError("criticality gating requires speculative scheduling")
        if self.criticality and self.hit_miss != HitMissPolicy.FILTER_CTR:
            raise ValueError(
                "criticality gating requires the hit/miss filter "
                "(the paper's SpecSched_*_Crit builds on _Combined)")
        if self.global_ctr_bits < 2 or self.filter_ctr_bits < 1:
            raise ValueError("counter widths too small")


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulator configuration (the whole of Table 1)."""

    name: str = "SpecSched_4"
    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    branch: BranchPredictorConfig = field(default_factory=BranchPredictorConfig)
    sched: SchedPolicyConfig = field(default_factory=SchedPolicyConfig)

    def validate(self) -> "SimConfig":
        self.core.validate()
        self.memory.validate()
        self.branch.validate()
        self.sched.validate()
        return self

    # -- derived helpers -------------------------------------------------

    @property
    def delay(self) -> int:
        """The paper's issue-to-execute delay, e.g. 4 for SpecSched_4."""
        return self.core.issue_to_execute_delay

    def with_core(self, **core_fields: Any) -> "SimConfig":
        return replace(self, core=replace(self.core, **core_fields))

    def with_sched(self, **sched_fields: Any) -> "SimConfig":
        return replace(self, sched=replace(self.sched, **sched_fields))

    def with_l1d(self, **l1d_fields: Any) -> "SimConfig":
        mem = replace(self.memory, l1d=replace(self.memory.l1d, **l1d_fields))
        return replace(self, memory=mem)

    # -- serialization (persistent result cache, sweep files) -------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless plain-dict encoding; inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimConfig":
        return dataclass_from_dict(cls, data)

    def content_hash(self) -> str:
        """Stable hex digest over every field; any difference in any
        (nested) field yields a different hash."""
        return stable_hash(self.to_dict())
