"""repro — Cost-Effective Speculative Scheduling in High Performance
Processors (Perais et al., ISCA 2015), reproduced as a Python library.

Quickstart::

    from repro import run_workload

    base = run_workload("xalancbmk", "SpecSched_4")
    crit = run_workload("xalancbmk", "SpecSched_4_Crit")
    print(crit.ipc / base.ipc, crit.stats.replayed_total,
          base.stats.replayed_total)

Public surface:

* configurations — :class:`SimConfig`, :func:`make_config` and the
  ``Baseline_*`` / ``SpecSched_*`` preset grammar;
* workloads — the 36-entry synthetic :data:`SUITE` (Table 2 analogue);
* simulation — :class:`Simulator` (cycle-level core) and
  :func:`run_workload`, the one driver of a single cell, plain or
  sampled (``sampling=SamplingSpec(...)``);
* mechanisms — :class:`HitMissFilter`, :class:`GlobalHitMissCounter`
  and :class:`CriticalityPredictor` for standalone study, and
  :class:`SchedulingPolicy`, the load-wakeup decision over them;
* experiments — :mod:`repro.experiments` regenerates every figure/table.
"""

from repro.checkpoint.sampling import SamplingSpec
from repro.common.config import (
    BranchPredictorConfig,
    CacheConfig,
    CoreConfig,
    DramConfig,
    HitMissPolicy,
    MemoryConfig,
    SchedPolicyConfig,
    SimConfig,
)
from repro.common.stats import CAUSE_BANK_CONFLICT, CAUSE_L1_MISS, SimStats
from repro.core.criticality import CriticalityPredictor
from repro.core.global_ctr import GlobalHitMissCounter
from repro.core.hm_filter import FilterPrediction, HitMissFilter
from repro.core.policy import SchedulingPolicy
from repro.core.presets import PRESET_NAMES, make_config
from repro.isa.opclass import OpClass
from repro.isa.uop import MicroOp
from repro.pipeline.cpu import SimulationError, Simulator
from repro.pipeline.sim import RunResult, run_workload
from repro.workloads.suite import DEFAULT_SUBSET, SUITE

__version__ = "1.0.0"

__all__ = [
    "BranchPredictorConfig",
    "CAUSE_BANK_CONFLICT",
    "CAUSE_L1_MISS",
    "CacheConfig",
    "CoreConfig",
    "CriticalityPredictor",
    "DEFAULT_SUBSET",
    "DramConfig",
    "FilterPrediction",
    "GlobalHitMissCounter",
    "HitMissFilter",
    "HitMissPolicy",
    "MemoryConfig",
    "MicroOp",
    "OpClass",
    "PRESET_NAMES",
    "RunResult",
    "SUITE",
    "SamplingSpec",
    "SchedPolicyConfig",
    "SchedulingPolicy",
    "SimConfig",
    "SimStats",
    "SimulationError",
    "Simulator",
    "make_config",
    "run_workload",
]
