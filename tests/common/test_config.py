import dataclasses

import pytest

from repro.common.config import (
    BRANCH_MISS_PENALTY,
    CacheConfig,
    CoreConfig,
    DramConfig,
    HitMissPolicy,
    SchedPolicyConfig,
    SimConfig,
)


class TestTable1Defaults:
    """The default SimConfig must match the paper's Table 1."""

    def test_core_dimensions(self):
        core = CoreConfig()
        assert core.rob_entries == 192
        assert core.iq_entries == 60
        assert core.lq_entries == 72
        assert core.sq_entries == 48
        assert core.int_prf == 256 and core.fp_prf == 256
        assert core.issue_width == 6
        assert core.fetch_width == 8 and core.retire_width == 8

    def test_functional_units(self):
        core = CoreConfig()
        assert core.num_alu == 4
        assert core.num_muldiv == 1
        assert core.num_fp == 2
        assert core.num_fpmuldiv == 2
        assert core.num_load_ports == 2
        assert core.num_store_ports == 1

    def test_l1d(self):
        cfg = SimConfig().memory.l1d
        assert cfg.size_bytes == 32 * 1024
        assert cfg.assoc == 8
        assert cfg.latency == 4
        assert cfg.banks == 8
        assert cfg.mshrs == 64
        assert cfg.num_sets == 64

    def test_l2(self):
        cfg = SimConfig().memory.l2
        assert cfg.size_bytes == 1024 * 1024
        assert cfg.assoc == 16
        assert cfg.latency == 13

    def test_dram_latency_band(self):
        dram = DramConfig()
        assert dram.base_latency == 75
        assert dram.max_latency == 185

    def test_default_delay_is_4(self):
        assert SimConfig().delay == 4


class TestFrontendDepth:
    """Section 3.1: frontend shrinks to keep the 20-cycle penalty."""

    @pytest.mark.parametrize("delay,depth", [(0, 15), (2, 13), (4, 11), (6, 9)])
    def test_depth(self, delay, depth):
        core = CoreConfig(issue_to_execute_delay=delay)
        assert core.frontend_depth == depth
        # frontend + backend distance stays constant.
        assert core.frontend_depth + delay == 15

    def test_penalty_constant(self):
        assert BRANCH_MISS_PENALTY == 20


class TestValidation:
    def test_default_validates(self):
        SimConfig().validate()

    def test_bad_delay_rejected(self):
        with pytest.raises(ValueError):
            SimConfig().with_core(issue_to_execute_delay=99).validate()

    def test_bad_cache_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000).validate()

    def test_bad_hit_miss_policy(self):
        with pytest.raises(ValueError):
            SchedPolicyConfig(hit_miss="bogus").validate()

    def test_criticality_requires_speculative(self):
        with pytest.raises(ValueError):
            SchedPolicyConfig(speculative=False, criticality=True).validate()

    def test_criticality_without_filter_rejected(self):
        with pytest.raises(ValueError, match="requires the hit/miss filter"):
            SchedPolicyConfig(hit_miss=HitMissPolicy.GLOBAL_CTR,
                              criticality=True).validate()

    def test_criticality_without_filter_rejected_from_a_dict(self):
        """A config read back from a checkpoint or cache payload is
        refused when validated, before any machine is built."""
        data = SimConfig().to_dict()
        data["sched"].update(hit_miss=HitMissPolicy.GLOBAL_CTR, criticality=True)
        config = SimConfig.from_dict(data)
        with pytest.raises(ValueError, match="requires the hit/miss filter"):
            config.validate()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SimConfig().name = "x"


class TestWithHelpers:
    def test_with_core_copies(self):
        a = SimConfig()
        b = a.with_core(issue_to_execute_delay=6)
        assert a.delay == 4 and b.delay == 6

    def test_with_l1d(self):
        b = SimConfig().with_l1d(banked=False)
        assert b.memory.l1d.banked is False
        assert b.memory.l2.latency == 13   # untouched

    def test_with_sched(self):
        b = SimConfig().with_sched(hit_miss=HitMissPolicy.FILTER_CTR)
        assert b.sched.hit_miss == HitMissPolicy.FILTER_CTR

    def test_to_dict_is_plain_data(self):
        d = SimConfig().to_dict()
        assert d["core"]["rob_entries"] == 192
