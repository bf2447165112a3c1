"""Schedule Shifting (Section 5.1).

"Although we issue two loads in the same cycle, we speculatively wake up
dependents on the second one with a latency increased by one. In other
words, we always expect pairs of loads to conflict in the L1."

The mechanism is a one-line adjustment of the promised latency at wakeup;
its three documented drawbacks all emerge from the timing model rather
than from special cases here:

1. a non-conflicting pair still delays the second load's dependents by one
   cycle;
2. conflicts across *different* issue cycles still cause replays;
3. two same-cycle loads that both miss trigger two squash events instead
   of one (their detection cycles differ by the extra promised cycle).
"""

from __future__ import annotations


class ScheduleShifter:
    """Promised-latency adjustment for the N-th load of an issue group."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.shifted = 0

    def promised_latency(self, base_latency: int,
                         loads_already_this_cycle: int) -> int:
        """Latency to promise for a load being granted a port now."""
        if self.enabled and loads_already_this_cycle >= 1:
            self.shifted += 1
            return base_latency + 1
        return base_latency

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {"shifted": self.shifted}

    def load_state_dict(self, state: dict) -> None:
        self.shifted = state["shifted"]
