"""Rename/Dispatch stage: pull decoded µops into the out-of-order window.

Inputs: the frontend pipe's delivery buffer (pull interface — the
hazards read the head entry, then ``FetchStage.take`` removes it, so a
stalled µop simply stays in the frontend). A correct-path non-branch µop
waits in the frontend as a trace row and is built when ``take`` hands it
over (:mod:`repro.frontend.fetch`).
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

from repro.backend.iq import insert_by_seq
from repro.isa.opclass import OpClass
from repro.pipeline.stages.base import NEVER, Stage
from repro.rename.rename import FP_REG_BASE

LOAD, STORE = OpClass.LOAD, OpClass.STORE


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
        # The container the per-µop path touches; restores refill it in
        # place, so this binding stays valid.
        self._iq_ready = sim.iq.ready

    def _room(self):
        """This cycle's allocation budgets, read once: (ROB and IQ slots,
        LQ slots, SQ slots, free int registers, free FP registers). The
        ROB and IQ take every µop, so one budget serves both."""
        rob, iq, lsq, renamer = self.rob, self.iq, self.lsq, self.renamer
        return (
            min(rob.capacity - len(rob), iq.capacity - len(iq)),
            lsq.lq_capacity - len(lsq.loads),
            lsq.sq_capacity - len(lsq.stores),
            len(renamer.int_free),
            len(renamer.fp_free),
        )

    def tick(self, now: int) -> None:
        """Rename and dispatch up to ``rename_width`` µops, stalling in
        order on the first structural hazard.

        The budgets are read once and counted down per µop; only this
        stage allocates, so they track the structures exactly. The
        hazards read the head entry's opclass and destination (a built
        µop's, or its trace row's), so the frontend builds a µop only
        once it is taken. An empty pipe has the frontend materialise the
        next virtual wrong-path µop before each hazard test (see
        :meth:`next_event`)."""
        frontend = self.frontend
        pipe = frontend.pipe
        if not pipe and not frontend.materialize_wrong_path(now):
            return
        entry = pipe[0]
        if entry[0] > now:
            return
        window, lq, sq, int_regs, fp_regs = self._room()
        take = frontend.take
        dispatch = self._dispatch
        for left in range(self.width - 1, -1, -1):
            if not window:
                return
            if len(entry) == 2:         # a built µop
                uop = entry[1]
                opclass, dst = uop.opclass, uop.dst
            else:                       # a run of trace rows
                row = entry[2][0]
                opclass, dst = row[1], row[3]
            if dst is not None:
                if dst >= FP_REG_BASE:
                    if not fp_regs:
                        return
                    fp_regs -= 1
                elif not int_regs:
                    return
                else:
                    int_regs -= 1
            if opclass == LOAD:
                if not lq:
                    return
                lq -= 1
            elif opclass == STORE:
                if not sq:
                    return
                sq -= 1
            window -= 1
            dispatch(take(), now)
            if not left:
                return
            if not pipe and not frontend.materialize_wrong_path(now):
                return
            entry = pipe[0]
            if entry[0] > now:
                return

    def next_event(self, now: int) -> int:
        """When the frontend's head is deliverable, or :data:`NEVER`
        while a hazard blocks it (only another stage's event lifts one).
        A virtual wrong-path head answers its ready cycle even under a
        hazard, because :meth:`tick` materialises that group's first
        µop."""
        head = self.frontend.head()
        if head is None:
            return NEVER
        ready, opclass, dst = head
        if opclass is not None:
            window, lq, sq, int_regs, fp_regs = self._room()
            if (
                not window
                or (dst is not None and not (fp_regs if dst >= FP_REG_BASE else int_regs))
                or (opclass == LOAD and not lq)
                or (opclass == STORE and not sq)
            ):
                return NEVER
        return ready if ready > now else now

    def _dispatch(self, uop, now: int) -> None:
        """Atomic rename+dispatch of one accepted µop (the per-µop seam
        telemetry overrides; ``tick`` already charged its budgets)."""
        scoreboard = self.scoreboard
        self.renamer.rename(uop)
        pdst = uop.pdst
        if pdst >= 0:
            scoreboard.unready(pdst)
        self.rob.allocate(uop)
        self.iq.insert(uop)
        pending = scoreboard.watch(uop)
        if uop.is_mem:
            lsq = self.lsq
            lsq.insert(uop)
            dep = self.store_sets.lookup_dependence(uop)
            if dep is not None:
                lsq.add_store_dependence(uop, dep)
                pending = uop.pending
        if pending == 0:
            # The youngest µop in the machine: appended to the ready list.
            insert_by_seq(self._iq_ready, uop)
