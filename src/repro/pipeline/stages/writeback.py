"""Writeback stage: drain the completion latch into the ROB.

Inputs: the execute→writeback :class:`~repro.pipeline.ports.DelayQueue`
(entries stamped with their completion cycle by Execute).
Outputs: ``completed`` marks on ROB entries (observed by Commit in the
*next* cycle, since Commit ticks earlier in the same cycle).
Latency: zero — everything due at ``now`` is marked this cycle; stale
entries (squashed or re-issued µops, detected by the ``issue_id``
snapshot) are dropped silently.
"""

from __future__ import annotations

from repro.pipeline.stages.base import Stage, first_due


class Writeback(Stage):
    """Mark µops complete when their scheduled completion cycle arrives."""

    name = "writeback"

    def __init__(self, sim) -> None:
        """Bind the ROB and the completion latch's slot table."""
        super().__init__(sim)
        self.rob = sim.rob
        self._slots = sim.completion_latch.slots

    def tick(self, now: int) -> None:
        """Complete every non-stale entry due at ``now``."""
        entries = self._slots.pop(now, None)
        if not entries:
            return
        for uop, issue_id in entries:
            if uop.dead or uop.num_issues != issue_id or not uop.executed:
                continue
            self.rob.note_completed(uop)

    def next_event(self, now: int) -> int:
        """The earliest completion-latch delivery."""
        return first_due(self._slots, now)
