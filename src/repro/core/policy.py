"""The scheduling policy: one load-wakeup decision tree (Sections 4.1-5.3).

The policy answers one question per issued load: *should its dependents
be woken speculatively, and with what promised latency?* Every
configuration the paper evaluates is one decision tree over the
mechanisms :class:`repro.common.config.SchedPolicyConfig` switches on:

* ``speculative`` off (``Baseline_*``): dependents always wait for the
  hit/miss outcome (Figure 3);
* ``hit_miss``: *always_hit* speculates on every load; *global_ctr*
  asks the Alpha-21264 global counter (:mod:`repro.core.global_ctr`);
  *filter_ctr* first asks the per-PC hit/miss filter
  (:mod:`repro.core.hm_filter`) and defers to the counter when unsure;
* ``criticality``: the ROB-head criticality predictor
  (:mod:`repro.core.criticality`) stalls non-critical unsure loads;
* ``schedule_shifting``: Schedule Shifting, below.

Decision for a load (Section 5.3): a *sure hit* from the filter always
speculates; a *sure miss* never does; otherwise, if criticality gating
is on and the load is predicted non-critical, dependents are stalled;
the remaining cases follow the global counter (or speculate, under
Always-Hit).

Schedule Shifting (Section 5.1): "Although we issue two loads in the
same cycle, we speculatively wake up dependents on the second one with
a latency increased by one. In other words, we always expect pairs of
loads to conflict in the L1." It is a one-cycle adjustment of the
promise; its three documented drawbacks all emerge from the timing
model rather than from special cases here:

1. a non-conflicting pair still delays the second load's dependents by
   one cycle;
2. conflicts across *different* issue cycles still cause replays;
3. two same-cycle loads that both miss trigger two squash events
   instead of one (their detection cycles differ by the extra promised
   cycle).

The policy owns its tables but not their training. A table the
configuration leaves out is ``None``, and the stages bind, once at build
time, only the tables the cell has: Commit trains the filter on retired
loads and the criticality table on every retired µop, Bookkeep feeds
the global counter each cycle with an L1 access, and fast-forward
warming trains the filter on L1 probe outcomes.

The policy only influences *wakeup*, never the recovery machinery, so
it is independent of the replay scheme, as in the paper's framing.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import HitMissPolicy, SchedPolicyConfig
from repro.common.stats import SimStats
from repro.core.criticality import CriticalityPredictor
from repro.core.global_ctr import GlobalHitMissCounter
from repro.core.hm_filter import FilterPrediction, HitMissFilter

#: The policy's tables, in checkpoint order.
TABLES = ("global_ctr", "hm_filter", "crit")


def _layout(state: dict) -> dict:
    """Table name -> entry count (0 for the counter) of a policy state."""
    return {name: len(table.get("counters", ())) for name, table in state.items()}


class SchedulingPolicy:
    """The load-wakeup decision over the configured mechanisms."""

    def __init__(self, sched: SchedPolicyConfig, load_to_use: int,
                 stats: Optional[SimStats] = None) -> None:
        sched.validate()
        self.load_to_use = load_to_use
        self.stats = stats if stats is not None else SimStats()
        self.speculative = sched.speculative
        self.shift = sched.speculative and sched.schedule_shifting
        gated = sched.speculative and sched.hit_miss != HitMissPolicy.ALWAYS_HIT
        self.global_ctr: Optional[GlobalHitMissCounter] = None
        if gated:
            self.global_ctr = GlobalHitMissCounter(
                sched.global_ctr_bits, sched.global_ctr_dec, sched.global_ctr_inc)
        self.hm_filter: Optional[HitMissFilter] = None
        if gated and sched.hit_miss == HitMissPolicy.FILTER_CTR:
            self.hm_filter = HitMissFilter(
                sched.filter_entries, sched.filter_ctr_bits,
                sched.filter_reset_interval,
                use_silence_bit=sched.filter_silence_bit)
        self.crit: Optional[CriticalityPredictor] = None
        if sched.criticality:          # validate(): only on top of the filter
            self.crit = CriticalityPredictor(sched.crit_entries, sched.crit_ctr_bits)

    # -- the decision ------------------------------------------------------

    def decide(self, pc: int, loads_before: int) -> Optional[int]:
        """The latency promised to the dependents of the load at ``pc``
        selected this cycle, or ``None`` when they wait for its outcome.

        ``loads_before`` is the number of loads already granted a port
        this cycle (0 for the first of a group, 1 for the second);
        Schedule Shifting keys off it.
        """
        if not self._speculates(pc):
            return None
        if self.shift and loads_before > 0:
            self.stats.shifted_loads += 1
            return self.load_to_use + 1
        return self.load_to_use

    def _speculates(self, pc: int) -> bool:
        if not self.speculative:
            return False
        stats = self.stats
        if self.hm_filter is not None:
            prediction = self.hm_filter.predict(pc)
            if prediction is FilterPrediction.SURE_HIT:
                stats.filter_sure_hit += 1
                return True
            if prediction is FilterPrediction.SURE_MISS:
                stats.filter_sure_miss += 1
                return False
            stats.filter_deferred += 1
        if self.crit is not None:
            if self.crit.predict_critical(pc):
                stats.crit_predicted_critical += 1
            else:
                stats.crit_predicted_noncritical += 1
                return False          # non-critical, not a sure hit: stall
        return self.global_ctr is None or self.global_ctr.predict_hit()

    # -- state protocol (repro.checkpoint) ---------------------------------

    def state_dict(self) -> dict:
        """The present tables by name; absent tables are omitted."""
        return {name: getattr(self, name).state_dict()
                for name in TABLES if getattr(self, name) is not None}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict`; a state saved under another
        mechanism set or table size is refused before anything changes."""
        if _layout(state) != _layout(self.state_dict()):
            raise ValueError(f"checkpoint policy tables {_layout(state)} do not match "
                             f"this configuration's {_layout(self.state_dict())}")
        for name in state:
            getattr(self, name).load_state_dict(state[name])
