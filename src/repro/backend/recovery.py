"""Recovery buffer (Morancho et al., as adapted in Section 3.1).

Every issued non-memory µop parks here between Issue and Execute so the IQ
entry can be released at issue (the paper found that retaining entries
cripples a 60-entry scheduler). On a schedule misspeculation the in-flight
µops are marked ``replay_pending``; once their sources are ready again they
re-issue *from the buffer head with priority over the IQ*, which merely
fills the holes in replayed issue groups.

Like the IQ, the replay-ready list stays seq-sorted at insertion and uses
the µop's ``in_ready`` flag for O(1) membership (a µop is never on both
ready lists: non-memory µops leave the IQ at first issue, memory µops
never enter the recovery buffer). Its members are live replay
candidates only (see :mod:`repro.backend.iq`).
"""

from __future__ import annotations

from typing import List, Set

from repro.backend.iq import insert_by_seq
from repro.isa.uop import MicroOp


class RecoveryBuffer:
    """Issued-but-not-executed µop store + replay-ready list."""

    def __init__(self) -> None:
        self._members: Set[MicroOp] = set()
        self.ready: List[MicroOp] = []    # replay_pending with sources ready

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, uop: MicroOp) -> bool:
        return uop in self._members

    def insert(self, uop: MicroOp) -> None:
        """Called at first issue of a non-memory µop."""
        self._members.add(uop)

    def remove(self, uop: MicroOp) -> None:
        """Called when the µop executes (leaves the danger window)."""
        self._members.discard(uop)
        if uop.in_ready:
            self.ready.remove(uop)
            uop.in_ready = False

    def make_ready(self, uop: MicroOp) -> None:
        """A replay-pending member became source-complete."""
        if (not uop.in_ready and uop.replay_pending
                and uop in self._members):
            insert_by_seq(self.ready, uop)

    def take_ready(self) -> List[MicroOp]:
        """Replay candidates, oldest first (head-of-buffer priority)."""
        return self.ready

    def remove_from_ready(self, uop: MicroOp) -> None:
        if uop.in_ready:
            self.ready.remove(uop)
            uop.in_ready = False

    def squash_younger(self, seq: int, inclusive: bool = False) -> List[MicroOp]:
        doomed = [u for u in self._members
                  if u.seq > seq or (inclusive and u.seq == seq)]
        for uop in doomed:
            self.remove(uop)
        return doomed

    def members(self) -> List[MicroOp]:
        return list(self._members)

    # -- state protocol (repro.checkpoint) -----------------------------

    def state_dict(self, ctx) -> dict:
        return {
            "members": ctx.refs(
                sorted(self._members, key=lambda u: u.seq)),
            "ready": ctx.refs(self.ready),
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        self._members = set(ctx.uops(state["members"]))
        self.ready = ctx.uops(state["ready"])
