"""Per-instruction hit/miss filter (Section 5.2, *Per-Instruction Filter*).

A 2K-entry direct-mapped array of 2-bit saturating counters indexed by the
load PC, incremented on a hit and decremented on a miss, *plus a silence
bit*: when a counter leaves a saturated state (e.g. 0 -> 1 after a hit on
an always-missing load), the entry is silenced — the load's behaviour is
not stable per-PC, so the decision falls back to the global counter.
Silenced counters are not updated; every ``reset_interval`` committed loads
all silence bits are cleared. Total storage: 2K x 3 bits = 768 bytes, the
figure quoted in the paper.

Prediction:

* not silenced and saturated high  -> *sure hit*  (always wake dependents);
* not silenced and saturated low   -> *sure miss* (never wake dependents);
* anything else                    -> defer to the global counter.

The filter is off the critical path and trained at commit time.
"""

from __future__ import annotations

import enum


class FilterPrediction(enum.Enum):
    SURE_HIT = "sure_hit"
    SURE_MISS = "sure_miss"
    DEFER = "defer"


class HitMissFilter:
    """2-bit counters + silence bits, periodic silence reset."""

    def __init__(self, entries: int = 2048, ctr_bits: int = 2,
                 reset_interval: int = 10_000,
                 use_silence_bit: bool = True) -> None:
        """``use_silence_bit=False`` is the paper's rejected alternative
        ("regular per-entry counters", Section 5.2): the counter's MSB
        always decides hit/miss and nothing ever defers to the global
        counter — kept for the ablation benchmark."""
        if entries < 1 or ctr_bits < 1:
            raise ValueError("invalid filter geometry")
        self.entries = entries
        self.use_silence_bit = use_silence_bit
        self.ctr_max = (1 << ctr_bits) - 1
        # Initialize mid-range: a fresh entry defers to the global counter
        # until the load establishes stable behaviour.
        self._init_value = self.ctr_max // 2 + 1
        self._counters = [self._init_value] * entries
        self._silenced = [False] * entries
        self.reset_interval = reset_interval
        self._committed_loads = 0

    def _index(self, pc: int) -> int:
        return pc % self.entries

    # -- prediction ---------------------------------------------------------

    def predict(self, pc: int) -> FilterPrediction:
        idx = self._index(pc)
        ctr = self._counters[idx]
        if not self.use_silence_bit:
            # Ablation mode: MSB decides, never defer.
            return FilterPrediction.SURE_HIT if ctr > self.ctr_max // 2 \
                else FilterPrediction.SURE_MISS
        if self._silenced[idx]:
            return FilterPrediction.DEFER
        if ctr == self.ctr_max:
            return FilterPrediction.SURE_HIT
        if ctr == 0:
            return FilterPrediction.SURE_MISS
        return FilterPrediction.DEFER

    # -- training (commit time) -----------------------------------------------

    def train(self, pc: int, hit: bool) -> None:
        """Observe a committed load's outcome."""
        self._committed_loads += 1
        idx = self._index(pc)
        if not self._silenced[idx] or not self.use_silence_bit:
            old = self._counters[idx]
            new = min(old + 1, self.ctr_max) if hit else max(old - 1, 0)
            self._counters[idx] = new
            if self.use_silence_bit:
                was_saturated = old in (0, self.ctr_max)
                is_transient = new not in (0, self.ctr_max)
                if was_saturated and is_transient:
                    self._silenced[idx] = True
        if self._committed_loads % self.reset_interval == 0:
            self._reset_silence()

    def _reset_silence(self) -> None:
        self._silenced = [False] * self.entries

    # -- state protocol (repro.checkpoint) ----------------------------------

    def state_dict(self) -> dict:
        return {
            "counters": list(self._counters),
            "silenced": list(self._silenced),
            "committed_loads": self._committed_loads,
        }

    def load_state_dict(self, state: dict) -> None:
        self._counters[:] = state["counters"]
        self._silenced[:] = state["silenced"]
        self._committed_loads = state["committed_loads"]

    # -- introspection ------------------------------------------------------

    def silenced_fraction(self) -> float:
        return sum(self._silenced) / self.entries
