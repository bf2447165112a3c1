"""The paper's contribution: speculative-scheduling policies.

* :mod:`repro.core.policy` — the policy interface, Always-Hit and
  conservative baselines;
* :mod:`repro.core.shifting` — Schedule Shifting (Section 5.1);
* :mod:`repro.core.global_ctr` — the Alpha-21264 4-bit global hit/miss
  counter (Section 5.2);
* :mod:`repro.core.hm_filter` — the 2K-entry per-PC hit/miss filter with
  silence bits (Section 5.2);
* :mod:`repro.core.criticality` — the ROB-head criticality predictor
  (Section 5.3);
* :mod:`repro.core.composed` — the composed policies used by the paper's
  named configurations;
* :mod:`repro.core.presets` — ``Baseline_*`` / ``SpecSched_*`` factories.
"""

from repro.core.policy import (
    AlwaysHitPolicy,
    ConservativePolicy,
    LoadDecision,
    SchedulingPolicy,
)
from repro.core.global_ctr import GlobalHitMissCounter
from repro.core.hm_filter import FilterPrediction, HitMissFilter
from repro.core.criticality import CriticalityPredictor
from repro.core.composed import ComposedPolicy, build_policy
from repro.core.presets import PRESET_NAMES, make_config

__all__ = [
    "AlwaysHitPolicy",
    "ComposedPolicy",
    "ConservativePolicy",
    "CriticalityPredictor",
    "FilterPrediction",
    "GlobalHitMissCounter",
    "HitMissFilter",
    "LoadDecision",
    "PRESET_NAMES",
    "SchedulingPolicy",
    "build_policy",
    "make_config",
]
