"""Physical register scoreboard: speculative wakeup infrastructure.

This is where speculative scheduling lives mechanically. When a producer
issues at cycle ``X`` promising latency ``L``, its destination register is
scheduled to become *issue-ready* at ``X+L`` — consumers selected from that
cycle on execute back-to-back (Figure 1). The promise may be wrong (loads):
the replay controller then *un-readies* the register (version bump cancels
the stale wakeup event) and re-schedules it at the corrected cycle.

Alongside issue-readiness the scoreboard tracks ``data_ready_at`` — the
earliest Execute-stage cycle at which the value is genuinely on the bypass
network. The core asserts this at execution time: with a correct replay
scheme the assertion never fires, making it a strong model invariant that
the tests lean on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.isa.uop import MicroOp

#: "Not ready any time soon" sentinel.
NEVER = 1 << 60


class Scoreboard:
    """Per-physical-register readiness + wakeup event queue."""

    def __init__(self, num_pregs: int,
                 on_ready: Optional[Callable[[MicroOp], None]] = None) -> None:
        self.ready = [True] * num_pregs         # issue-visible readiness
        self.data_ready_at = [0] * num_pregs    # earliest valid Execute cycle
        self.version = [0] * num_pregs          # cancels stale wakeup events
        self._waiters: Dict[int, List[MicroOp]] = {}
        self._events: Dict[int, List[tuple]] = {}  # cycle -> [(preg, version)]
        self.on_ready = on_ready or (lambda uop: None)

    # -- producer side ----------------------------------------------------

    def broadcast(self, preg: int, wake_cycle: int, data_ready_exec: int) -> None:
        """Producer issued: destination becomes ready at ``wake_cycle``.

        ``data_ready_exec`` is the earliest Execute cycle with valid data.
        """
        self.ready[preg] = False
        self.data_ready_at[preg] = data_ready_exec
        version = self.version[preg] + 1
        self.version[preg] = version
        events = self._events
        entry = events.get(wake_cycle)
        if entry is None:
            events[wake_cycle] = [(preg, version)]
        else:
            entry.append((preg, version))

    def unready(self, preg: int) -> None:
        """Squash a producer: its destination is no longer coming."""
        self.ready[preg] = False
        self.data_ready_at[preg] = NEVER
        self.version[preg] += 1     # cancels any in-flight wakeup event

    # -- consumer side ------------------------------------------------------

    def watch(self, uop: MicroOp) -> int:
        """Register ``uop`` to be woken by its not-yet-ready sources.

        Sets and returns ``uop.pending`` (the count of outstanding register
        sources — the caller adds store-dependence separately). The µop is
        *not* reported through ``on_ready`` by this call even if pending is
        zero; the caller routes it directly.
        """
        pending = 0
        ready = self.ready
        waiters = self._waiters
        for preg in uop.psrcs:
            if not ready[preg]:
                pending += 1
                entry = waiters.get(preg)
                if entry is None:
                    waiters[preg] = [uop]
                else:
                    entry.append(uop)
        uop.pending = pending
        return pending

    # -- clock -----------------------------------------------------------

    @property
    def event_cycles(self) -> Dict[int, List[tuple]]:
        """The wakeup calendar keyed by cycle (read it, never mutate it)."""
        return self._events

    def tick(self, now: int) -> None:
        """Fire wakeup events scheduled for ``now``.

        Newly source-complete µops are handed to ``on_ready`` (the core
        routes them into the IQ or recovery-buffer ready lists).
        """
        events = self._events.pop(now, None)
        if not events:
            return
        versions = self.version
        ready = self.ready
        all_waiters = self._waiters
        on_ready = self.on_ready
        for preg, version in events:
            if versions[preg] != version:
                continue            # squashed/corrected since scheduling
            ready[preg] = True
            waiters = all_waiters.pop(preg, None)
            if not waiters:
                continue
            for uop in waiters:
                if uop.dead or uop.pending <= 0:
                    continue        # squashed permanently, or stale entry
                uop.pending -= 1
                if uop.pending == 0:
                    on_ready(uop)

    def drop_waiter(self, uop: MicroOp) -> None:
        """Best-effort removal of a µop from all waiter lists (squash)."""
        waiters = self._waiters
        for preg in uop.psrcs:
            entry = waiters.get(preg)
            if entry is not None:
                try:
                    entry.remove(uop)
                except ValueError:
                    pass

    # -- state protocol (repro.checkpoint) -------------------------------

    def state_dict(self, ctx) -> dict:
        """Waiter lists are stored seq-sorted, by register, for a
        deterministic encoding: replay re-arm fills them in the IQ's set
        order, and their order never affects behaviour (each wakeup
        decrements every waiter; the ready lists it feeds are
        seq-sorted)."""
        return {
            "ready": list(self.ready),
            "data_ready_at": list(self.data_ready_at),
            "version": list(self.version),
            "waiters": [(preg, ctx.refs(sorted(waiters, key=lambda u: u.seq)))
                        for preg, waiters in sorted(self._waiters.items())],
            "events": [(cycle, [tuple(e) for e in events])
                       for cycle, events in self._events.items()],
        }

    def load_state_dict(self, state: dict, ctx) -> None:
        self.ready[:] = state["ready"]
        self.data_ready_at[:] = state["data_ready_at"]
        self.version[:] = state["version"]
        self._waiters = {preg: ctx.uops(refs)
                         for preg, refs in state["waiters"]}
        self._events = {cycle: [tuple(e) for e in events]
                        for cycle, events in state["events"]}

    def rewatch(self, uop: MicroOp) -> int:
        """Fused :meth:`drop_waiter` + :meth:`watch` (replay re-arm).

        Replay storms re-arm every waiting µop they touch, so shaving
        call overhead here is a measurable share of miss-heavy runs.
        The drop pass must fully precede the re-add pass: a µop can name
        the same source register twice (``srcs=[2, 2]``), and
        interleaving would strip the entry the first occurrence just
        re-added, leaving ``pending`` higher than the entries that can
        ever wake it."""
        waiters = self._waiters
        psrcs = uop.psrcs
        for preg in psrcs:
            entry = waiters.get(preg)
            if entry is not None:
                try:
                    entry.remove(uop)
                except ValueError:
                    pass
        pending = 0
        ready = self.ready
        for preg in psrcs:
            if not ready[preg]:
                pending += 1
                entry = waiters.get(preg)
                if entry is None:
                    waiters[preg] = [uop]
                else:
                    entry.append(uop)
        uop.pending = pending
        return pending
