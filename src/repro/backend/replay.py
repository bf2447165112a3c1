"""Replay controller — the Alpha-21264-style squash machinery (Section 3.1).

A load that was speculatively woken but resolves with a longer latency
(L1 miss, or bank-conflict delay) schedules a :class:`ReplayEvent` at its
*detection cycle* ``C = issue + D + load_to_use − 1`` (the hit/miss signal
is available one cycle before the data returns). When the event fires:

* every µop issued in the window ``[C−D, C−1]`` that has not yet executed
  is squashed — dependents *and* independents, as in the 21264;
* the issue stage is blocked during cycle ``C`` ("an additional issue cycle
  is lost");
* all squashed µops re-issue later — from the IQ (memory µops) or the
  recovery buffer (everything else).

Multiple loads detecting in the same cycle fold into one squash; the cause
recorded for the replayed µops is the *oldest* trigger's. The paper does
not say how a squash with two causes is counted; charging it to one
cause keeps each replayed µop in exactly one per-cause count.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.common.stats import CAUSE_BANK_CONFLICT, CAUSE_L1_MISS
from repro.isa.uop import MicroOp


class ReplayEvent:
    """One detected schedule misspeculation."""

    __slots__ = ("load", "cause", "corrected_latency")

    def __init__(self, load: MicroOp, cause: str, corrected_latency: int) -> None:
        if cause not in (CAUSE_L1_MISS, CAUSE_BANK_CONFLICT):
            raise ValueError(f"unknown replay cause {cause!r}")
        self.load = load
        self.cause = cause
        self.corrected_latency = corrected_latency

    def __repr__(self) -> str:  # pragma: no cover
        return (f"ReplayEvent(load=seq{self.load.seq}, cause={self.cause}, "
                f"alat={self.corrected_latency})")


def _event_seq(event: ReplayEvent) -> int:
    return event.load.seq


class ReplayController:
    """Detection-event calendar + in-flight issue-group window."""

    def __init__(self, delay: int) -> None:
        self.delay = delay
        self._events: Dict[int, List[ReplayEvent]] = {}
        self._window: Deque[Tuple[int, List[MicroOp]]] = deque()
        self.events_fired = 0

    # -- issue-side bookkeeping -------------------------------------------

    def note_issue(self, uop: MicroOp, now: int) -> None:
        """Record an issued µop in the in-flight window."""
        if self._window and self._window[-1][0] == now:
            self._window[-1][1].append(uop)
        else:
            self._window.append((now, [uop]))

    def prune(self, now: int) -> None:
        """Forget issue groups that are past the squashable window."""
        horizon = now - self.delay - 1
        while self._window and self._window[0][0] < horizon:
            self._window.popleft()

    # -- detection ------------------------------------------------------------

    def schedule(self, event: ReplayEvent, detection_cycle: int) -> None:
        self._events.setdefault(detection_cycle, []).append(event)

    @property
    def event_cycles(self) -> Dict[int, List[ReplayEvent]]:
        """The detection calendar keyed by cycle (read it, never mutate
        it)."""
        return self._events

    def has_event(self, now: int) -> bool:
        return now in self._events

    def pop_events(self, now: int) -> List[ReplayEvent]:
        events = self._events.pop(now, [])
        if events:
            self.events_fired += len(events)
            events.sort(key=_event_seq)
        return events

    # -- state protocol (repro.checkpoint) --------------------------------

    def state_dict(self, ctx) -> dict:
        return {
            "events": [
                (cycle, [(ctx.ref(e.load), e.cause, e.corrected_latency)
                         for e in events])
                for cycle, events in self._events.items()],
            "window": [(cycle, ctx.refs(group))
                       for cycle, group in self._window],
            "events_fired": self.events_fired,
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        self._events = {
            cycle: [ReplayEvent(ctx.uop(ref), cause, alat)
                    for ref, cause, alat in events]
            for cycle, events in state["events"]}
        self._window = deque(
            (cycle, ctx.uops(refs)) for cycle, refs in state["window"])
        self.events_fired = state["events_fired"]

    def squashable_uops(self, now: int) -> List[MicroOp]:
        """µops issued in ``[now−D, now−1]`` that have not executed.

        The current issue instance must match the window record (a µop
        squashed and re-issued belongs to its *new* group only).
        """
        lo = now - self.delay
        doomed: List[MicroOp] = []
        for cycle, group in self._window:
            if cycle < lo or cycle >= now:
                continue
            for uop in group:
                if (not uop.executed and not uop.dead and not uop.squashed
                        and uop.issue_cycle == cycle):
                    doomed.append(uop)
        return doomed
