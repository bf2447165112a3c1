"""Reorder buffer — 192 entries (Table 1), 8-wide retire.

Also the home of the paper's criticality *criterion* (Section 5.3): a µop
is tagged critical when it is at the ROB head at the moment it completes
(Fields et al. / Tune et al. heuristic).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.isa.uop import MicroOp


class ReorderBuffer:
    """In-order retirement window."""

    def __init__(self, capacity: int = 192) -> None:
        if capacity < 1:
            raise ValueError("ROB capacity must be >= 1")
        self.capacity = capacity
        #: Program-order window; Commit pops its head directly.
        self.entries: Deque[MicroOp] = deque()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self.entries

    def free_slots(self) -> int:
        return self.capacity - len(self.entries)

    def allocate(self, uop: MicroOp) -> None:
        entries = self.entries
        if len(entries) >= self.capacity:
            raise OverflowError("ROB overflow")
        entries.append(uop)

    def head(self) -> Optional[MicroOp]:
        return self.entries[0] if self.entries else None

    def note_completed(self, uop: MicroOp) -> None:
        """Record completion; tags criticality if the µop is the head."""
        uop.completed = True
        if self.entries and self.entries[0] is uop:
            uop.was_critical = True

    def squash_younger(self, seq: int, inclusive: bool = False) -> List[MicroOp]:
        """Remove µops younger than ``seq``; returns them youngest-first.

        ``inclusive`` also removes the µop with ``seq`` itself
        (memory-order-violation refetch starts *at* the offending load).
        """
        squashed: List[MicroOp] = []
        while self.entries:
            tail = self.entries[-1]
            if tail.seq > seq or (inclusive and tail.seq == seq):
                squashed.append(self.entries.pop())
            else:
                break
        return squashed

    def __iter__(self):
        return iter(self.entries)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self, ctx) -> dict:
        return {"entries": ctx.refs(self.entries)}

    def load_state_dict(self, state: dict, ctx) -> None:
        # In place: Commit binds the deque.
        self.entries.clear()
        self.entries.extend(ctx.uops(state["entries"]))
