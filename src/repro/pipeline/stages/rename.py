"""Rename/Dispatch stage: pull decoded µops into the out-of-order window.

Inputs: the frontend pipe's delivery buffer (pull interface —
``peek``/``pop``, so a stalled µop simply stays in the frontend).
Outputs: renamed µops allocated into ROB + IQ (+ LSQ for memory µops),
registered with the scoreboard's waiter lists, store-set dependences
installed, and immediately-ready µops placed on the IQ ready list.
Latency: up to ``rename_width`` µops per cycle; the stage stalls (in
order) the moment any allocation would overflow.

Rename and Dispatch are deliberately one fused stage object: allocation
must be atomic across RAT/free-list, ROB, IQ and LSQ — a µop renamed
but not dispatched would need an undo path through four structures.
``docs/ARCHITECTURE.md`` records this fusion (and Decode's, inside the
frontend pipe) in the stage map.
"""

from __future__ import annotations

from repro.pipeline.stages.base import NEVER, Stage


class Rename(Stage):
    """Fused rename + dispatch: in-order allocation into the OoO window."""

    name = "rename"

    def __init__(self, sim) -> None:
        """Bind the frontend pipe and every allocation structure."""
        super().__init__(sim)
        self.frontend = sim.fetch
        self.rob = sim.rob
        self.iq = sim.iq
        self.lsq = sim.lsq
        self.renamer = sim.renamer
        self.scoreboard = sim.scoreboard
        self.store_sets = sim.store_sets
        self.width = sim.config.core.rename_width

    def tick(self, now: int) -> None:
        """Rename and dispatch up to ``rename_width`` µops, stalling in
        order on the first structural hazard."""
        fetch = self.frontend
        blocked = self._blocked
        for _ in range(self.width):
            uop = fetch.peek(now)
            if uop is None or blocked(uop):
                return
            fetch.pop()
            self._dispatch(uop, now)

    def _blocked(self, uop) -> bool:
        """A ROB/IQ/free-list/LQ/SQ hazard stops ``uop`` (and, in order,
        everything behind it)."""
        return (
            self.rob.full
            or self.iq.full
            or not self.renamer.can_rename(uop)
            or (uop.is_load and self.lsq.lq_full())
            or (uop.is_store and self.lsq.sq_full())
        )

    def next_event(self, now: int) -> int:
        """When the frontend's head is deliverable, or :data:`NEVER`
        while a hazard blocks it (only another stage's event lifts one).
        An empty pipe answers the oldest virtual wrong-path group's
        ready cycle even under a hazard, because ``peek`` materialises
        that group's first µop."""
        head = self.frontend.head()
        if head is None:
            return NEVER
        ready, uop = head
        if uop is not None and self._blocked(uop):
            return NEVER
        return ready if ready > now else now

    def _dispatch(self, uop, now: int) -> None:
        """Atomic rename+dispatch of one accepted µop (the per-µop seam
        telemetry overrides; hazards were already checked by ``tick``)."""
        scoreboard = self.scoreboard
        self.renamer.rename(uop)
        if uop.pdst >= 0:
            scoreboard.unready(uop.pdst)
        self.rob.allocate(uop)
        iq = self.iq
        iq.insert(uop)
        scoreboard.watch(uop)
        if uop.is_mem:
            lsq = self.lsq
            lsq.insert(uop)
            dep = self.store_sets.lookup_dependence(uop)
            if dep is not None:
                lsq.add_store_dependence(uop, dep)
        if uop.pending == 0:
            iq.make_ready(uop)
