"""Event-emitting stage subclasses (installed when a bus is attached).

Building a :class:`~repro.pipeline.cpu.Simulator` with ``event_bus=``
swaps these classes in through the ordinary ``stage_overrides``
mechanism. They are the repo's one instrumentation mechanism: every
consumer of per-µop lifecycle data — the JSONL writer, the metric
aggregator, the timing diagrams'
:class:`~repro.experiments.timeline.TimelineSink` — is a sink on the
bus. The default stage list never sees them, so the events-off hot loop
is byte-for-byte the uninstrumented code.

Each override calls the base implementation first and then emits; none
of them touches machine state, so an instrumented run's ``SimStats``
are bit-identical to an uninstrumented one (asserted by the telemetry
test suite and re-checked by the ``telemetry`` benchmark on every run).
"""

from __future__ import annotations

from repro.isa.opclass import EXEC_LATENCY_BY_OP
from repro.pipeline.stages.commit import Commit
from repro.pipeline.stages.execute import Execute
from repro.pipeline.stages.issue import Issue
from repro.pipeline.stages.rename import Rename
from repro.pipeline.stages.writeback import Writeback
from repro.telemetry.events import (
    EV_COMMIT,
    EV_EXECUTE,
    EV_FETCH,
    EV_FILTER_OUT,
    EV_FILTER_PRED,
    EV_ISSUE,
    EV_RECOVER,
    EV_RENAME,
    EV_REPLAY,
    EV_SQUASH,
    EV_VIOLATION,
    EV_WRITEBACK,
    SQUASH_BRANCH,
    SQUASH_REPLAY,
    SQUASH_VIOLATION,
)

__all__ = [
    "TELEMETRY_STAGES",
    "TelemetryCommit",
    "TelemetryExecute",
    "TelemetryIssue",
    "TelemetryRename",
    "TelemetryWriteback",
]


class TelemetryRename(Rename):
    """Rename override: per-µop ``fetch`` + ``rename`` events.

    The ``fetch`` event is emitted at rename-delivery time but stamped
    with the µop's recorded fetch cycle, so wrong-path µops synthesized
    lazily by the frontend are covered too. µops still inside the
    frontend pipe when the run ends are never delivered and therefore
    never appear in the trace.
    """

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.events = sim.event_bus

    def _dispatch(self, uop, now: int) -> None:
        super()._dispatch(uop, now)
        emit = self.events.emit
        emit(uop.fetch_cycle, EV_FETCH, uop.seq, uop.pc,
             1 if uop.wrong_path else 0, int(uop.opclass))
        emit(now, EV_RENAME, uop.seq, uop.pc)


class TelemetryIssue(Issue):
    """Issue override: ``issue``/``recover`` plus the filter prediction."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.events = sim.event_bus

    def _do_issue(self, uop, now: int, loads_before: int) -> None:
        was_replay = uop.replay_pending
        super()._do_issue(uop, now, loads_before)
        emit = self.events.emit
        emit(now, EV_ISSUE, uop.seq, uop.pc, uop.num_issues,
             uop.promised_latency)
        if was_replay:
            emit(now, EV_RECOVER, uop.seq, uop.pc, uop.num_issues - 1)
        if uop.is_load:
            # The policy's wakeup promise, as actually applied: the
            # paper-critical hit/miss-filter prediction point.
            emit(now, EV_FILTER_PRED, uop.seq, uop.pc,
                 1 if uop.spec_woken else 0, uop.promised_latency)


class TelemetryExecute(Execute):
    """Execute override: execution, replay triggers and squash cascades."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.events = sim.event_bus

    def _execute_uop(self, uop, now: int) -> None:
        super()._execute_uop(uop, now)
        self.events.emit(
            now, EV_EXECUTE, uop.seq, uop.pc,
            uop.actual_latency if uop.is_load
            else EXEC_LATENCY_BY_OP[uop.opclass],
            1 if (uop.is_load and uop.l1_hit) else 0)

    def _schedule_completion(self, uop, cycle: int, now: int) -> None:
        super()._schedule_completion(uop, cycle, now)
        if cycle <= now:
            # Same-cycle completions bypass the writeback latch; emit
            # their writeback here so every µop's lifecycle closes.
            self.events.emit(now, EV_WRITEBACK, uop.seq, uop.pc)

    def _note_replay(self, events, doomed, now: int) -> None:
        emit = self.events.emit
        for event in events:
            load = event.load
            emit(now, EV_REPLAY, load.seq, load.pc, len(doomed),
                 now - load.issue_cycle)
        for uop in doomed:
            emit(now, EV_SQUASH, uop.seq, uop.pc, SQUASH_REPLAY)

    def _note_squash(self, cause: str, trigger, doomed, now: int) -> None:
        emit = self.events.emit
        if cause == "violation":
            emit(now, EV_VIOLATION, trigger.seq, trigger.pc, len(doomed))
            code = SQUASH_VIOLATION
        else:
            code = SQUASH_BRANCH
        for uop in doomed:
            emit(now, EV_SQUASH, uop.seq, uop.pc, code)


class TelemetryWriteback(Writeback):
    """Writeback override: completion events for latch-delivered µops."""

    # The emitting tick drains the same latch, so the base rule holds.
    next_event = Writeback.next_event

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.events = sim.event_bus

    def tick(self, now: int) -> None:
        entries = self._slots.pop(now, None)
        if not entries:
            return
        rob = self.rob
        emit = self.events.emit
        for uop, issue_id in entries:
            if uop.dead or uop.num_issues != issue_id or not uop.executed:
                continue
            rob.note_completed(uop)
            emit(now, EV_WRITEBACK, uop.seq, uop.pc)


class TelemetryCommit(Commit):
    """Commit override: retirement plus the filter-outcome event."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.events = sim.event_bus

    def _retire(self, head, now: int) -> None:
        super()._retire(head, now)
        emit = self.events.emit
        emit(now, EV_COMMIT, head.seq, head.pc)
        if head.is_load:
            # Prediction (the wakeup promise made at issue) vs ground
            # truth: the hit/miss-filter training signal.
            emit(now, EV_FILTER_OUT, head.seq, head.pc,
                 1 if head.spec_woken else 0, 1 if head.l1_hit else 0)


#: ``stage name -> event-emitting class`` — merged into ``stage_overrides``
#: by the Simulator constructor when an ``event_bus`` is supplied.
TELEMETRY_STAGES = {
    "rename": TelemetryRename,
    "issue": TelemetryIssue,
    "execute": TelemetryExecute,
    "writeback": TelemetryWriteback,
    "commit": TelemetryCommit,
}
