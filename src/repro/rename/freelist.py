"""Physical-register free list."""

from __future__ import annotations

from collections import deque
from typing import Deque


class FreeList:
    """FIFO free list over a fixed physical-register range.

    Registers ``[base, base + count)`` belong to this pool; the first
    ``reserved`` of them are handed out immediately as the initial
    architectural mappings and never start on the list.
    """

    def __init__(self, base: int, count: int, reserved: int = 0) -> None:
        if reserved > count:
            raise ValueError("cannot reserve more registers than exist")
        self.base = base
        self.count = count
        self._free: Deque[int] = deque(range(base + reserved, base + count))

    def __len__(self) -> int:
        return len(self._free)

    @property
    def empty(self) -> bool:
        return not self._free

    def allocate(self) -> int:
        """Pop a free register; raises IndexError when exhausted."""
        return self._free.popleft()

    def release(self, preg: int) -> None:
        """Return a register to the pool."""
        if not self.base <= preg < self.base + self.count:
            raise ValueError(f"preg {preg} not in pool [{self.base}, "
                             f"{self.base + self.count})")
        self._free.append(preg)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        return {"free": list(self._free)}

    def load_state_dict(self, state: dict) -> None:
        self._free = deque(state["free"])
