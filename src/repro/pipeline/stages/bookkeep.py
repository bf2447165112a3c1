"""Bookkeep stage: end-of-cycle counter training and window pruning.

Inputs: the ``l1_miss`` / ``l1_access`` wires driven by Execute this
cycle.
Outputs: the global hit/miss counter's per-cycle observation (only when
the cell's policy has a counter) and the replay controller's
issue-window prune.
Latency: zero — this is the canonical end-of-cycle pseudo-stage; every
per-cycle accounting hook that must observe a *complete* cycle belongs
here, which is why it is last in the tick order.
"""

from __future__ import annotations

from repro.pipeline.stages.base import NEVER, Stage


class Bookkeep(Stage):
    """Per-cycle counter observation + replay-window pruning."""

    name = "bookkeep"

    def __init__(self, sim) -> None:
        """Bind the policy's global counter (``None`` when it has
        none), the replay controller and the L1 wires."""
        super().__init__(sim)
        ctr = sim.policy.global_ctr
        self._observe_cycle = ctr.observe_cycle if ctr is not None else None
        self.replay = sim.replay
        self.l1_miss = sim.l1_miss
        self.l1_access = sim.l1_access

    def tick(self, now: int) -> None:
        """Feed an L1-access cycle's outcome to the global counter (idle
        cycles say nothing about hit/miss behaviour); prune the window."""
        if self._observe_cycle is not None and self.l1_access.value:
            self._observe_cycle(self.l1_miss.value)
        self.replay.prune(now)

    def next_event(self, now: int) -> int:
        """Never: a cycle without an L1 access trains no counter, and the
        window prune is monotone, so :meth:`skip` covers any span."""
        return NEVER

    def skip(self, now: int, until: int) -> None:
        """Prune the replay window as the span's last tick would."""
        self.replay.prune(until - 1)
