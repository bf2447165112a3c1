"""Execute stage: functional execution, replay detection, squashes.

Inputs: the issue→execute :class:`~repro.pipeline.ports.DelayQueue`
(µops stamped ``issue + D + 1`` by Issue) and the replay controller's
detection events.
Outputs: completion entries pushed into the execute→writeback latch
(stamped with each µop's actual completion cycle); corrected wakeup
broadcasts into the scoreboard; the ``l1_miss`` / ``l1_access`` wires
(read by Bookkeep's policy hook) and the ``issue_block`` wire (read by
Issue in the same cycle — replay handling costs an issue cycle);
squash cascades (replay, branch misprediction, memory-order violation)
into ROB/IQ/LSQ/recovery/renamer/frontend.
Latency: a µop executes exactly when its latch entry comes due; loads
complete after their actual memory latency, other classes after their
fixed :data:`~repro.isa.opclass.EXEC_LATENCY_BY_OP` latency.

Replay detection runs *before* the cycle's executions so a mis-
speculated wakeup squashes the in-flight window it poisoned (Section
3.1's Alpha-style squash), and re-arms the waiting population from
scoreboard truth.
"""

from __future__ import annotations

from typing import List

from repro.backend.replay import ReplayEvent
from repro.common.stats import CAUSE_BANK_CONFLICT, CAUSE_L1_MISS
from repro.isa.opclass import EXEC_LATENCY_BY_OP
from repro.isa.uop import MicroOp
from repro.pipeline.stages.base import SimulationError, Stage, first_due


class Execute(Stage):
    """Execute due µops; detect mis-speculated wakeups; run squashes."""

    name = "execute"

    def __init__(self, sim) -> None:
        """Bind the backend structures and the stage's latches/wires."""
        super().__init__(sim)
        self.scoreboard = sim.scoreboard
        self._data_ready_at = sim.scoreboard.data_ready_at
        self.rob = sim.rob
        self.iq = sim.iq
        self.lsq = sim.lsq
        self.recovery = sim.recovery
        self.replay = sim.replay
        self.store_sets = sim.store_sets
        self.hierarchy = sim.hierarchy
        self.branch_unit = sim.branch_unit
        self.renamer = sim.renamer
        self.frontend = sim.fetch
        self.stats = sim.stats
        self.delay = sim.delay
        self.load_to_use = sim.load_to_use
        self._slots = sim.exec_latch.slots
        self._completion_slots = sim.completion_latch.slots
        self.issue_block = sim.issue_block
        self.l1_miss = sim.l1_miss
        self.l1_access = sim.l1_access

    def tick(self, now: int) -> None:
        """Handle due replay events, then execute every due µop."""
        if self.replay.has_event(now):
            self._handle_replay(now)
        entries = self._slots.pop(now, None)
        if not entries:
            return
        for uop, issue_id in entries:
            if uop.dead or uop.squashed or uop.num_issues != issue_id:
                continue
            self._execute_uop(uop, now)

    def next_event(self, now: int) -> int:
        """The earliest issue->execute delivery or replay detection."""
        due = first_due(self._slots, now)
        if due == now:
            return now
        return min(due, first_due(self.replay.event_cycles, now))

    def _execute_uop(self, uop: MicroOp, now: int) -> None:
        data_ready_at = self._data_ready_at
        for preg in uop.psrcs:
            if data_ready_at[preg] > now:
                raise SimulationError(f"µop executed with invalid operands at cycle {now}: {uop!r}")
        uop.executed = True
        if uop.is_mem:
            if uop.is_load:
                self._execute_load(uop, now)
            else:
                self._execute_store(uop, now)
            self.iq.release(uop)
            return
        if uop.is_branch:
            self._execute_branch(uop, now)
        else:
            self._schedule_completion(uop, now + EXEC_LATENCY_BY_OP[uop.opclass] - 1, now)
        self.recovery.remove(uop)

    def _execute_load(self, uop: MicroOp, now: int) -> None:
        forwarding_store = self.lsq.forwarding_store(uop)
        if forwarding_store is not None:
            uop.l1_hit = True
            alat = self.load_to_use
            self.stats.store_forwards += 1
        else:
            outcome = self.hierarchy.load(uop.mem_addr, uop.pc, now)
            alat = outcome.latency
            uop.l1_hit = outcome.hit
            self.l1_access.value = True
            if not outcome.hit:
                self.l1_miss.value = True
        uop.actual_latency = alat
        issue = uop.issue_cycle
        if uop.spec_woken:
            if alat > uop.promised_latency:
                cause = CAUSE_L1_MISS if not uop.l1_hit else CAUSE_BANK_CONFLICT
                # The checker fires when the *promise* comes due (one cycle
                # before the data was supposed to return). A shifted second
                # load therefore detects one cycle later than its pair —
                # which is why two same-cycle loads that both miss trigger
                # two squash events under Schedule Shifting (Section 5.1,
                # drawback 3).
                detection = issue + self.delay + uop.promised_latency - 1
                self.replay.schedule(ReplayEvent(uop, cause, alat), max(detection, now + 1))
        elif uop.pdst >= 0:
            # Conservative: dependents cannot issue before the hit/miss
            # outcome is known (one cycle before data return, Section 1),
            # which costs hits the whole issue-to-execute delay (Figure 3).
            # Misses resolve with the refill timing already known, so their
            # dependents issue at the corrected data-arrival point.
            wake = max(issue + alat, issue + self.delay + self.load_to_use)
            self.scoreboard.broadcast(uop.pdst, wake, issue + self.delay + 1 + alat)
        self._schedule_completion(uop, uop.exec_start + alat - 1, now)

    def _execute_store(self, uop: MicroOp, now: int) -> None:
        offender = self.lsq.detect_violation(uop)
        self.hierarchy.store(uop.mem_addr, uop.pc, now)
        self.store_sets.store_done(uop)
        self.lsq.store_executed_wakeups(uop)
        self._schedule_completion(uop, now, now)
        if offender is not None and not uop.wrong_path and not offender.wrong_path:
            self.stats.memory_order_violations += 1
            self.store_sets.train_violation(uop.pc, offender.pc)
            self._violation_squash(offender, now)

    def _execute_branch(self, uop: MicroOp, now: int) -> None:
        self._schedule_completion(uop, now, now)
        if uop.wrong_path:
            return  # wrong-path branches never redirect anything
        self.stats.branches += 1
        self.branch_unit.resolve(uop)
        # Fetch went down the wrong path exactly when it saw this
        # outcome, so the redirect follows the same flag.
        if uop.mispredicted:
            self.stats.branch_mispredicts += 1
            self._branch_squash(uop, now)

    def _schedule_completion(self, uop: MicroOp, cycle: int, now: int) -> None:
        # Same-cycle completions skip the latch (they are already due).
        if cycle <= now:
            self.rob.note_completed(uop)
        else:
            queue = self._completion_slots
            entry = queue.get(cycle)
            if entry is None:
                queue[cycle] = [(uop, uop.num_issues)]
            else:
                entry.append((uop, uop.num_issues))

    # -- replay (the Alpha-style squash of Section 3.1) -------------------

    def _handle_replay(self, now: int) -> None:
        events = [ev for ev in self.replay.pop_events(now) if not ev.load.dead]
        if not events:
            return
        cause = events[0].cause  # oldest trigger attributes the event
        doomed = self.replay.squashable_uops(now)
        for uop in doomed:
            uop.squashed = True
            uop.replay_pending = True
            if uop.pdst >= 0:
                self.scoreboard.unready(uop.pdst)
        # Correct the triggering loads' destinations.
        for event in events:
            load = event.load
            if load.pdst >= 0:
                issue = load.issue_cycle
                wake = max(issue + event.corrected_latency, now + 1)
                self.scoreboard.broadcast(
                    load.pdst, wake, issue + self.delay + 1 + event.corrected_latency
                )
        self._rearm_waiting_uops(doomed, events)
        if doomed or self.delay > 0:
            # Handling the misspeculation blocks issue for a cycle even
            # when every in-flight µop was already squashed by an earlier
            # event this window — the checker still fires (this is how two
            # same-cycle missing loads cost two replays under Schedule
            # Shifting). With D=0 the window is definitionally empty and
            # no handling happens: SpecSched_0 stays cycle-identical to
            # Baseline_0.
            self.stats.record_replayed(cause, len(doomed))
            self.issue_block.value = now  # "an additional issue cycle is lost"
        self._note_replay(events, doomed, now)

    def _note_replay(self, events, doomed, now: int) -> None:
        """Telemetry seam: a replay window was just handled (no-op here).

        ``events`` are the triggering :class:`ReplayEvent`\\ s, ``doomed``
        the µops squashed by them.
        """

    def _rearm_waiting_uops(self, doomed: List[MicroOp], events: List[ReplayEvent]) -> None:
        """Recompute readiness for the waiting µops a replay touched.

        A replay un-readies the doomed µops' destinations and re-times
        the triggering loads'. Every waiting µop that reads one of those
        registers may have been woken too early, and every doomed µop
        waits to re-issue again: those re-watch from scoreboard truth
        and leave or (re-)join a ready list. Any other waiting µop reads
        only registers whose readiness the replay did not change, so its
        ``pending`` count, waiter entries and ready-list place already
        are what a rebuild would give them (waiter-list order aside,
        which nothing observes).
        """
        touched = {u.pdst for u in doomed if u.pdst >= 0}
        touched.update(ev.load.pdst for ev in events if ev.load.pdst >= 0)
        doomed_set = set(doomed)
        waiting: List[MicroOp] = [
            u
            for u in self.iq.occupants()
            if not u.executed and (u.num_issues == 0 or u.replay_pending)
        ]
        waiting.extend(u for u in self.recovery.members() if u.replay_pending)
        iq, recovery = self.iq, self.recovery
        rewatch = self.scoreboard.rewatch
        route_ready = self.scoreboard.on_ready     # Issue's router
        for uop in waiting:
            if uop not in doomed_set and touched.isdisjoint(uop.psrcs):
                continue
            if uop.in_ready:
                (iq if uop.in_iq else recovery).remove_from_ready(uop)
            pending = rewatch(uop)
            store_dep = uop.store_dep
            if store_dep is not None and not store_dep.executed:
                pending = uop.pending = pending + 1
                # still registered in the LSQ waiter list
            if pending == 0:
                route_ready(uop)

    # -- squashes (branch misprediction, memory-order violation) ----------

    def _branch_squash(self, branch: MicroOp, now: int) -> None:
        doomed = self.rob.squash_younger(branch.seq)  # youngest first
        self._kill_uops(doomed)
        self.renamer.rollback(doomed)
        self.frontend.redirect(now)
        self._note_squash("branch", branch, doomed, now)

    def _violation_squash(self, offender: MicroOp, now: int) -> None:
        doomed = self.rob.squash_younger(offender.seq, inclusive=True)
        self._kill_uops(doomed)
        self.renamer.rollback(doomed)
        refetch = [u for u in reversed(doomed) if not u.wrong_path]
        self.frontend.squash_all(now)
        self.frontend.inject_refetch(refetch)
        self._note_squash("violation", offender, doomed, now)

    def _note_squash(self, cause: str, trigger: MicroOp, doomed, now: int) -> None:
        """Telemetry seam: a branch/violation squash cascade just ran
        (no-op here). ``trigger`` is the mispredicted branch or the
        offending load."""

    def _kill_uops(self, doomed: List[MicroOp]) -> None:
        if not doomed:
            return
        oldest = min(u.seq for u in doomed)
        for uop in doomed:
            uop.dead = True
            self.scoreboard.drop_waiter(uop)
            if uop.is_store:
                self.store_sets.store_done(uop)
        self.iq.squash_younger(oldest - 1)
        self.recovery.squash_younger(oldest - 1)
        self.lsq.squash_younger(oldest - 1)
