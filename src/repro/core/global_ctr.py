"""The Alpha-21264 global hit/miss counter (Section 5.2, *Using a Global
Counter*).

"The most significant bit of a 4-bit counter tells if a load should
speculatively wake up its dependents or not. The counter is decremented by
two on cycles where a L1 miss takes place, and incremented by one
otherwise." L1 misses cluster in time, so a few recent misses flip the
whole scheduler to conservative mode until the miss burst passes.
"""

from __future__ import annotations


class GlobalHitMissCounter:
    """Saturating global counter; MSB gates speculative wakeup."""

    def __init__(self, bits: int = 4, dec_on_miss: int = 2,
                 inc_on_hit: int = 1) -> None:
        if bits < 2:
            raise ValueError("counter needs at least 2 bits")
        self.max_value = (1 << bits) - 1
        self.msb = 1 << (bits - 1)
        self.dec_on_miss = dec_on_miss
        self.inc_on_hit = inc_on_hit
        # Start saturated-high: speculate until misses say otherwise.
        self.value = self.max_value

    def predict_hit(self) -> bool:
        """True: wake dependents speculatively."""
        return bool(self.value & self.msb)

    def observe_cycle(self, l1_miss_this_cycle: bool) -> None:
        if l1_miss_this_cycle:
            self.value = max(0, self.value - self.dec_on_miss)
        else:
            self.value = min(self.max_value, self.value + self.inc_on_hit)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {"value": self.value}

    def load_state_dict(self, state: dict) -> None:
        self.value = state["value"]
