"""Return address stack — 32 entries (Table 1), circular overwrite.

Checkpoints are copy-on-write: the branch unit snapshots the RAS on
*every* predicted branch, and copying the full stack each time dominated
branch prediction cost. Only :meth:`push` mutates the stack contents
(:meth:`pop` just moves the top pointer, which the snapshot captures as
scalars), so the stack tuple is cached and reused until the next push —
conditional-branch-only code takes exactly one copy per simulation, and
call-heavy code one copy per call, never more than the old
copy-per-snapshot scheme. Memory stays O(entries).
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class ReturnAddressStack:
    """Fixed-depth RAS; pushes wrap around and overwrite the oldest entry."""

    def __init__(self, entries: int = 32) -> None:
        if entries < 1:
            raise ValueError("RAS needs at least one entry")
        self.entries = entries
        self._stack: List[int] = [0] * entries
        self._top = 0          # index of next push slot
        self._depth = 0        # live entries (saturates at `entries`)
        self._stack_snapshot: Optional[Tuple[int, ...]] = None

    def push(self, return_pc: int) -> None:
        self._stack[self._top] = return_pc
        self._stack_snapshot = None        # contents changed: drop cache
        self._top = (self._top + 1) % self.entries
        self._depth = min(self._depth + 1, self.entries)

    def pop(self) -> int:
        """Predicted return target; 0 on underflow."""
        if self._depth == 0:
            return 0
        self._top = (self._top - 1) % self.entries
        self._depth -= 1
        return self._stack[self._top]

    def snapshot(self) -> Tuple[int, int, Tuple[int, ...]]:
        """Checkpoint for squash recovery (copy-on-write stack tuple)."""
        stack = self._stack_snapshot
        if stack is None:
            stack = self._stack_snapshot = tuple(self._stack)
        return (self._top, self._depth, stack)

    def restore(self, snap: Tuple[int, int, Tuple[int, ...]]) -> None:
        self._top, self._depth, stack = snap
        self._stack = list(stack)
        self._stack_snapshot = stack

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {
            "stack": list(self._stack),
            "top": self._top,
            "depth": self._depth,
        }

    def load_state_dict(self, state: dict) -> None:
        self._stack = list(state["stack"])
        self._top = state["top"]
        self._depth = state["depth"]
        self._stack_snapshot = None      # pure cache: rebuilt on demand
