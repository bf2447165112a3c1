"""Wakeup stage: fire the scoreboard's due wakeup events.

Inputs: the scoreboard's internal event queue (broadcasts scheduled by
Issue's promises and Execute's corrections).
Outputs: newly source-complete µops handed to the scoreboard's
``on_ready`` router, which the Issue stage binds to its ready lists.
Latency: zero — events due at ``now`` fire at ``now``; because Wakeup
ticks immediately before Issue, a µop woken this cycle can be selected
this same cycle (the back-to-back scheduling of Figure 1).

This is the wakeup half of the scheduler; Issue is the select half.
They are separate stage objects so alternative schedulers can replace
either independently.
"""

from __future__ import annotations

from repro.pipeline.stages.base import Stage, first_due


class Wakeup(Stage):
    """Fire due wakeup events into the ready lists."""

    name = "wakeup"

    def __init__(self, sim) -> None:
        """Bind the scoreboard."""
        super().__init__(sim)
        self.scoreboard = sim.scoreboard

    def tick(self, now: int) -> None:
        """Deliver every wakeup event scheduled for ``now``."""
        self.scoreboard.tick(now)

    def next_event(self, now: int) -> int:
        """The earliest scheduled wakeup event."""
        return first_due(self.scoreboard.event_cycles, now)
