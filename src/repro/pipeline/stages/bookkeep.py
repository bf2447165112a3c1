"""Bookkeep stage: end-of-cycle policy hooks and window pruning.

Inputs: the ``l1_miss`` / ``l1_access`` wires driven by Execute this
cycle.
Outputs: the scheduling policy's per-cycle observation (global hit/miss
counter training) and the replay controller's issue-window prune.
Latency: zero — this is the canonical end-of-cycle pseudo-stage; every
per-cycle accounting hook that must observe a *complete* cycle belongs
here, which is why it is last in the tick order.
"""

from __future__ import annotations

from repro.pipeline.stages.base import NEVER, Stage


class Bookkeep(Stage):
    """Per-cycle policy observation + replay-window pruning."""

    name = "bookkeep"

    def __init__(self, sim) -> None:
        """Bind the policy, the replay controller and the L1 wires."""
        super().__init__(sim)
        self.policy = sim.policy
        self.replay = sim.replay
        self.l1_miss = sim.l1_miss
        self.l1_access = sim.l1_access

    def tick(self, now: int) -> None:
        """Feed the cycle's L1 outcome to the policy; prune the window."""
        self.policy.on_cycle(self.l1_miss.value, self.l1_access.value)
        self.replay.prune(now)

    def next_event(self, now: int) -> int:
        """Never: a cycle without an L1 access trains no policy, and the
        window prune is monotone, so :meth:`skip` covers any span."""
        return NEVER

    def skip(self, now: int, until: int) -> None:
        """Prune the replay window as the span's last tick would."""
        self.replay.prune(until - 1)
