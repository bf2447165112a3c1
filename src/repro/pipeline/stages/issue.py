"""Issue (select) stage: pick ready µops and launch them toward Execute.

Inputs: the ready lists fed through ``route_ready`` (this stage binds it
into the scoreboard and the LSQ), the FU pool's per-cycle port budget,
and the ``issue_block`` wire (a replay handled this cycle blocks issue).
Outputs: issued µops pushed into the issue→execute
:class:`~repro.pipeline.ports.DelayQueue` stamped ``now + D + 1``, and
speculative wakeup broadcasts into the scoreboard promising each
producer's latency (the speculative-scheduling mechanism itself — the
promise may be wrong for loads; Execute's checker handles that).
Latency: selection and broadcast happen in the issue cycle; execution
starts after the issue-to-execute delay ``D`` plus one.

Select order is recovery buffer first (replayed µops have priority,
Section 3.1), then the IQ, both oldest-first; the per-cycle budget is
``issue_width`` across the two.

The load wakeup decision is delegated to the configured scheduling
policy (:class:`repro.core.policy.SchedulingPolicy`): Always-Hit
speculation, Schedule Shifting, hit/miss filtering, criticality gating,
or the conservative baseline — swapping schedulers never edits this
stage, let alone the driver loop.
"""

from __future__ import annotations

from typing import List

from repro.isa.opclass import EXEC_LATENCY_BY_OP, FU_KIND_BY_OP, UNPIPELINED_BY_OP
from repro.isa.uop import MicroOp
from repro.pipeline.stages.base import NEVER, Stage


class Issue(Stage):
    """Oldest-first select over recovery + IQ ready lists, then launch."""

    name = "issue"

    def __init__(self, sim) -> None:
        """Bind select/launch structures and route wakeups to the
        ready lists."""
        super().__init__(sim)
        self.iq = sim.iq
        self.recovery = sim.recovery
        self.fus = sim.fus
        self._used = sim.fus.used
        self._counts = sim.fus.counts
        self.scoreboard = sim.scoreboard
        self.replay = sim.replay
        self._decide = sim.policy.decide
        self.load_to_use = sim.load_to_use
        self.stats = sim.stats
        self.width = sim.config.core.issue_width
        self.delay = sim.delay
        self._slots = sim.exec_latch.slots
        self.issue_block = sim.issue_block
        # The wakeup producers (scoreboard, LSQ) call the router
        # directly, and Execute's replay re-arm reads it back from the
        # scoreboard. It closes over the two ready lists, not over this
        # stage, so the scoreboard holding it makes no reference cycle.
        iq_ready = sim.iq.make_ready
        recovery_ready = sim.recovery.make_ready

        def route_ready(uop: MicroOp) -> None:
            """A µop became source-complete: put it on its ready list."""
            if uop.dead or uop.executed:
                return
            if uop.num_issues > 0 and not uop.replay_pending:
                return  # already in flight; nothing to wake
            if uop.in_iq:
                iq_ready(uop)
            elif uop.replay_pending:
                recovery_ready(uop)

        sim.scoreboard.on_ready = sim.lsq.on_ready = route_ready

    def tick(self, now: int) -> None:
        """Select and launch up to ``issue_width`` ready µops."""
        if self.issue_block.value == now:
            self.stats.issue_cycles_lost += 1
            return
        budget = self.width
        # Recovery buffer has priority over the scheduler; the IQ fills
        # the holes in replayed issue groups (Section 3.1).
        ready = self.recovery.take_ready()
        if ready:
            budget = self._issue_from(ready, budget, now)
        if budget > 0:
            ready = self.iq.take_ready()
            if ready:
                self._issue_from(ready, budget, now)

    def next_event(self, now: int) -> int:
        """``now`` while a ready list holds a candidate; otherwise only a
        wakeup can give Issue work. The lists hold only live µops, so
        the question has no side effect."""
        if self.recovery.ready or self.iq.ready:
            return now
        return NEVER

    def _issue_from(self, candidates: List[MicroOp], budget: int, now: int) -> int:
        """Issue oldest-first from one ready list while ``budget`` and
        the cycle's port table allow; returns the budget left.

        Each candidate costs one kind lookup against the table; only an
        unpipelined op asks the pool for a free unit. The slots its kind
        already used this cycle are, for a load, the loads issued before
        it (the policy's ``loads_before``)."""
        used = self._used
        counts = self._counts
        do_issue = self._do_issue
        # _do_issue takes each issued µop off the list: walk a copy.
        for uop in candidates[:]:
            opclass = uop.opclass
            kind = FU_KIND_BY_OP[opclass]
            taken = used[kind]
            if taken >= counts[kind]:
                continue
            if UNPIPELINED_BY_OP[opclass] and not self.fus.claim_unpipelined(kind, opclass, now):
                continue
            used[kind] = taken + 1
            do_issue(uop, now, taken)
            budget -= 1
            if not budget:
                break
        return budget

    def _do_issue(self, uop: MicroOp, now: int, loads_before: int) -> None:
        num_issues = uop.num_issues + 1
        was_replay = uop.replay_pending
        uop.issue_cycle = now
        uop.num_issues = num_issues
        uop.squashed = False
        uop.replay_pending = False
        delay = self.delay
        exec_start = uop.exec_start = now + delay + 1
        queue = self._slots
        entry = queue.get(exec_start)
        if entry is None:
            queue[exec_start] = [(uop, num_issues)]
        else:
            entry.append((uop, num_issues))
        self.replay.note_issue(uop, now)

        stats = self.stats
        stats.issued_total += 1
        if num_issues == 1:
            stats.unique_issued += 1
        if uop.wrong_path:
            stats.wrong_path_issued += 1

        # Wakeup broadcast.
        pdst = uop.pdst
        if uop.is_load:
            promised = self._decide(uop.pc, loads_before)
            if promised is not None:
                uop.spec_woken = True
                uop.promised_latency = promised
                stats.speculative_loads += 1
                if pdst >= 0:
                    self.scoreboard.broadcast(pdst, now + promised, now + promised + delay + 1)
            else:
                uop.spec_woken = False
                uop.promised_latency = self.load_to_use
                stats.conservative_loads += 1
                if pdst >= 0:
                    self.scoreboard.unready(pdst)
        else:
            latency = EXEC_LATENCY_BY_OP[uop.opclass]
            uop.spec_woken = True
            uop.promised_latency = latency
            if pdst >= 0:
                self.scoreboard.broadcast(pdst, now + latency, now + latency + delay + 1)

        # Structure management.
        if uop.is_mem:
            self.iq.remove_from_ready(uop)  # keeps its IQ entry
        elif uop.in_iq:
            self.iq.release(uop)  # first issue: move to recovery
            self.recovery.insert(uop)
        elif was_replay:
            self.recovery.remove_from_ready(uop)
