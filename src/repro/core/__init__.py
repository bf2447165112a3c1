"""The paper's contribution: speculative-scheduling policies.

* :mod:`repro.core.policy` — :class:`SchedulingPolicy`, the one
  load-wakeup decision tree behind every configuration: conservative
  baseline, Always-Hit, Schedule Shifting (Section 5.1) and the gates
  below;
* :mod:`repro.core.global_ctr` — the Alpha-21264 4-bit global hit/miss
  counter (Section 5.2);
* :mod:`repro.core.hm_filter` — the 2K-entry per-PC hit/miss filter with
  silence bits (Section 5.2);
* :mod:`repro.core.criticality` — the ROB-head criticality predictor
  (Section 5.3);
* :mod:`repro.core.presets` — ``Baseline_*`` / ``SpecSched_*`` factories.
"""

from repro.core.global_ctr import GlobalHitMissCounter
from repro.core.hm_filter import FilterPrediction, HitMissFilter
from repro.core.criticality import CriticalityPredictor
from repro.core.policy import SchedulingPolicy
from repro.core.presets import PRESET_NAMES, make_config

__all__ = [
    "CriticalityPredictor",
    "FilterPrediction",
    "GlobalHitMissCounter",
    "HitMissFilter",
    "PRESET_NAMES",
    "SchedulingPolicy",
    "make_config",
]
