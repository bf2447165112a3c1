"""Shared infrastructure: configuration, statistics, math helpers."""

from repro.common.config import (
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    DramConfig,
    MemoryConfig,
    SchedPolicyConfig,
    SimConfig,
)
from repro.common.mathutil import geomean, is_pow2, log2_int
from repro.common.stats import SimStats

__all__ = [
    "BranchPredictorConfig",
    "CacheConfig",
    "CoreConfig",
    "DramConfig",
    "MemoryConfig",
    "SchedPolicyConfig",
    "SimConfig",
    "SimStats",
    "geomean",
    "is_pow2",
    "log2_int",
]
