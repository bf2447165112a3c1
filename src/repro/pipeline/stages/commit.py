"""Commit stage: in-order retirement from the ROB head.

Inputs: the ROB (head entries marked ``completed`` by Writeback).
Outputs: architectural effects — RAT commit in the renamer, LSQ entry
release, training of the policy's commit-time tables (the hit/miss
filter on loads, the criticality table on every µop, each only when the
cell has it) — plus the ``last_commit`` wire the driver's deadlock trap
watches.
Latency: retires up to ``retire_width`` µops in the cycle they are
observed complete (commit runs first in the tick order, so a µop
completing in cycle ``X`` retires no earlier than ``X + 1``).
"""

from __future__ import annotations

from repro.pipeline.stages.base import NEVER, SimulationError, Stage


class Commit(Stage):
    """In-order retire of up to ``retire_width`` completed µops."""

    name = "commit"

    def __init__(self, sim) -> None:
        """Bind the ROB's window, renamer, LSQ, the policy tables trained
        at commit (``None`` when the cell has none) and the commit wire."""
        super().__init__(sim)
        self._entries = sim.rob.entries
        self.renamer = sim.renamer
        self.lsq = sim.lsq
        hm_filter, crit = sim.policy.hm_filter, sim.policy.crit
        self._train_filter = hm_filter.train if hm_filter is not None else None
        self._train_crit = crit.train if crit is not None else None
        self.stats = sim.stats
        self.width = sim.config.core.retire_width
        self.last_commit = sim.last_commit

    def tick(self, now: int) -> None:
        """Retire completed ROB-head µops, oldest first: the loop pops
        the ROB's deque directly."""
        entries = self._entries
        if not entries or not entries[0].completed:
            return
        retire = self._retire
        pop = entries.popleft
        for _ in range(self.width):
            if not entries:
                break
            head = entries[0]
            if not head.completed:
                break
            if head.wrong_path:
                raise SimulationError(f"wrong-path µop reached ROB head: {head!r}")
            pop()
            retire(head, now)
        self.last_commit.value = now

    def next_event(self, now: int) -> int:
        """``now`` when the ROB head is completed; otherwise only
        Writeback or Execute can complete it."""
        entries = self._entries
        return now if entries and entries[0].completed else NEVER

    def _retire(self, head, now: int) -> None:
        """Architectural effects of one retirement (the per-µop seam
        telemetry overrides; the ROB entry is already popped)."""
        self.renamer.commit(head)
        if head.is_mem:
            self.lsq.release(head)
        self.stats.committed_uops += 1
        if head.is_load and self._train_filter is not None:
            self._train_filter(head.pc, head.l1_hit)
        if self._train_crit is not None:
            self._train_crit(head.pc, head.was_critical)
