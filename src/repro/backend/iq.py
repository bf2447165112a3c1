"""Unified issue queue — 60 entries (Table 1), oldest-first select.

Entry lifetime follows Section 3.1: non-memory µops release their entry
the moment they issue (speculatively or not); loads and stores keep theirs
until they have *executed*, because a squashed memory µop is re-issued from
the IQ rather than from the recovery buffer.

The ready list is kept sorted by ``seq`` at insertion (an append for
the youngest µop, Rename's case, else a binary search) and each µop
carries an ``in_ready`` flag, so per-cycle select is a plain walk — no
per-cycle sort, no linear membership scans.

The ready lists hold only live µops: every µop leaves them when it
issues, executes or is released, and a squash releases every doomed µop
through ``squash_younger``, so select never meets a dead or stale
member and ``take_ready`` returns the list as it is.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import List, Set

from repro.isa.uop import MicroOp

_seq = attrgetter("seq")


def insert_by_seq(ready: List[MicroOp], uop: MicroOp) -> None:
    """Insert ``uop`` into a seq-sorted ready list (shared with the
    recovery buffer): an append when it is the youngest, else a binary
    search."""
    seq = uop.seq
    if not ready or ready[-1].seq < seq:
        ready.append(uop)
    else:
        ready.insert(bisect_left(ready, seq, key=_seq), uop)
    uop.in_ready = True


class IssueQueue:
    """Occupancy tracking + the ready list for first-time issue."""

    def __init__(self, capacity: int = 60) -> None:
        if capacity < 1:
            raise ValueError("IQ capacity must be >= 1")
        self.capacity = capacity
        self._occupants: Set[MicroOp] = set()
        self.ready: List[MicroOp] = []   # source-complete, awaiting select

    def __len__(self) -> int:
        return len(self._occupants)

    @property
    def full(self) -> bool:
        return len(self._occupants) >= self.capacity

    def free_slots(self) -> int:
        return self.capacity - len(self._occupants)

    def insert(self, uop: MicroOp) -> None:
        occupants = self._occupants
        if len(occupants) >= self.capacity:
            raise OverflowError("IQ overflow")
        occupants.add(uop)
        uop.in_iq = True

    def make_ready(self, uop: MicroOp) -> None:
        """Move a source-complete occupant onto the ready list."""
        if uop.in_ready or uop not in self._occupants:
            return
        insert_by_seq(self.ready, uop)

    def take_ready(self) -> List[MicroOp]:
        """Current ready µops, oldest (smallest seq) first."""
        return self.ready

    def remove_from_ready(self, uop: MicroOp) -> None:
        if uop.in_ready:
            self.ready.remove(uop)
            uop.in_ready = False

    def release(self, uop: MicroOp) -> None:
        """Free the entry (at issue for non-memory, at execute for memory)."""
        self._occupants.discard(uop)
        uop.in_iq = False
        if uop.in_ready:
            self.ready.remove(uop)
            uop.in_ready = False

    def squash_younger(self, seq: int, inclusive: bool = False) -> List[MicroOp]:
        """Drop occupants younger than ``seq``; returns them (any order)."""
        doomed = [u for u in self._occupants
                  if u.seq > seq or (inclusive and u.seq == seq)]
        for uop in doomed:
            self.release(uop)
        return doomed

    def occupants(self) -> List[MicroOp]:
        return list(self._occupants)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self, ctx) -> dict:
        """Occupants are stored seq-sorted for a deterministic encoding
        (the live set's iteration order never affects behaviour: select
        order comes from the seq-sorted ready list)."""
        return {
            "occupants": ctx.refs(
                sorted(self._occupants, key=lambda u: u.seq)),
            "ready": ctx.refs(self.ready),
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        self._occupants = set(ctx.uops(state["occupants"]))
        self.ready[:] = ctx.uops(state["ready"])
