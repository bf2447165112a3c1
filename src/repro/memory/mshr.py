"""Miss Status Holding Registers.

Tracks in-flight line refills so that secondary misses merge with the
primary (the younger load's latency is hidden under the older one — the
effect Liu et al.'s predictor exploits, Section 2.2). Table 1 gives both
the L1D and the L2 64 MSHRs.
"""

from __future__ import annotations

from typing import Dict, Optional


class MshrFile:
    """Fixed-capacity map: line address -> refill-completion cycle."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("MSHR capacity must be >= 1")
        self.capacity = capacity
        self._inflight: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    def expire(self, now: int) -> None:
        """Retire entries whose refill has arrived."""
        if not self._inflight:
            return
        done = [line for line, ready in self._inflight.items() if ready <= now]
        for line in done:
            del self._inflight[line]

    def lookup(self, line: int) -> Optional[int]:
        """Completion cycle of an in-flight refill for ``line``, if any."""
        return self._inflight.get(line)

    def allocate(self, line: int, ready_cycle: int, now: int) -> int:
        """Allocate (or merge into) an entry; returns the completion cycle.

        When the file is full the request is serialized behind the earliest
        completing entry — a simple but bounded model of MSHR-full stalls.
        """
        self.expire(now)
        existing = self._inflight.get(line)
        if existing is not None:
            return existing
        if len(self._inflight) >= self.capacity:
            earliest = min(self._inflight.values())
            ready_cycle = max(ready_cycle, earliest + 1)
            # The stalled request re-requests once a register frees up; we
            # approximate by evicting the earliest-completing entry.
            for key, value in list(self._inflight.items()):
                if value == earliest:
                    del self._inflight[key]
                    break
        self._inflight[line] = ready_cycle
        return ready_cycle

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self) -> dict:
        """Entries keep insertion order — the full-file eviction walk
        breaks completion-cycle ties by it."""
        return {"inflight": list(self._inflight.items())}

    def load_state_dict(self, state: dict) -> None:
        self._inflight = dict(state["inflight"])
