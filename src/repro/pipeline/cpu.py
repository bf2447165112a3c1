"""The cycle-level out-of-order core: a declarative stage-list driver.

One :class:`Simulator` models the machine of Table 1 executing one trace
under one configuration. The machine itself lives in
:mod:`repro.pipeline.stages` — stage objects connected by the wires and
latches of :mod:`repro.pipeline.ports` — and the driver's
:meth:`Simulator.step` is a tick over that stage list, nothing more.
:meth:`Simulator.run` also skips quiescent cycles: when every stage's
``next_event`` names a later cycle, it applies the span through each
stage's ``skip`` and jumps there, with counters and machine state as if
every cycle had ticked. Tick order, wiring diagram and timing contract
(Section 4.1 / Figure 1) are documented normatively in
``docs/ARCHITECTURE.md``."""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from repro.backend.fu import FuPool
from repro.backend.iq import IssueQueue
from repro.backend.lsq import LoadStoreQueue
from repro.backend.prf import Scoreboard
from repro.backend.recovery import RecoveryBuffer
from repro.backend.replay import ReplayController
from repro.backend.rob import ReorderBuffer
from repro.backend.storesets import StoreSets
from repro.common.config import SimConfig
from repro.common.stats import SimStats
from repro.core.policy import SchedulingPolicy
from repro.frontend.branch_unit import BranchUnit
from repro.frontend.fetch import FetchStage
from repro.isa.trace import TraceSource
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import checkpointing
from repro.pipeline.warming import warm_stream
from repro.pipeline.ports import DelayQueue, Wire
from repro.pipeline.stages import build_stages
from repro.pipeline.stages.base import NEVER, SimulationError, Stage
from repro.rename.rename import RegisterRenamer

__all__ = ["SimulationError", "Simulator"]


class Simulator:
    """One machine configuration executing one trace."""

    #: Cycles without a commit before we declare the model wedged.
    DEADLOCK_LIMIT = 100_000
    #: Bumped when the simulator-level state layout changes.
    STATE_VERSION = 5

    def __init__(
        self,
        config: SimConfig,
        trace: TraceSource,
        phase_profile=None,
        stage_overrides=None,
        extra_stages=(),
        event_bus=None,
    ) -> None:
        """Build the structures, then wire the stage list over them
        (see :func:`repro.pipeline.stages.build_stages`).

        ``event_bus`` (a :class:`repro.telemetry.events.EventBus`) turns
        on per-µop lifecycle events: the event-emitting stage subclasses
        are merged under any explicit ``stage_overrides``. When it is
        ``None`` (the default) the telemetry package is not even
        imported and the machine is built from the plain stage classes.
        """
        config.validate()
        self.config = config
        self.trace = trace
        self.stats = SimStats()
        core = config.core
        self.delay = core.issue_to_execute_delay
        self.load_to_use = config.memory.l1d.latency
        self.now = 0

        # Shared structures (serialized via checkpointing's registry).
        self.hierarchy = MemoryHierarchy(config.memory, self.stats)
        self.branch_unit = BranchUnit(config.branch)
        self.fetch = FetchStage(trace, self.branch_unit, core, self.stats)
        self.renamer = RegisterRenamer(core)
        self.scoreboard = Scoreboard(core.int_prf + core.fp_prf)
        self.rob = ReorderBuffer(core.rob_entries)
        self.iq = IssueQueue(core.iq_entries)
        self.lsq = LoadStoreQueue(core.lq_entries, core.sq_entries)
        self.fus = FuPool(core)
        self.recovery = RecoveryBuffer()
        self.replay = ReplayController(self.delay)
        self.store_sets = StoreSets(core.store_set_ssid_entries, core.store_set_lfst_entries)
        self.policy = SchedulingPolicy(config.sched, self.load_to_use, self.stats)

        # Inter-stage latches and wires (see docs/ARCHITECTURE.md).
        self.exec_latch = DelayQueue("issue->execute")
        self.completion_latch = DelayQueue("execute->writeback")
        self.issue_block = Wire("issue_block", -1)
        self.last_commit = Wire("last_commit", 0)
        self.l1_miss = Wire("l1_miss_this_cycle", False)
        self.l1_access = Wire("l1_access_this_cycle", False)

        self.event_bus = event_bus
        if event_bus is not None:
            from repro.telemetry.stages import TELEMETRY_STAGES

            merged = dict(TELEMETRY_STAGES)
            merged.update(stage_overrides or {})
            stage_overrides = merged
        self.stages = build_stages(self, overrides=stage_overrides, extra=extra_stages)

        # Optional per-stage instrumentation (repro.perf); :meth:`run`
        # picks the timed step, so the uninstrumented loop stays
        # branch-free and the machine holds no bound method of itself.
        self.phase_profile = phase_profile

    def stage(self, name: str) -> Stage:
        """The stage object named ``name`` (KeyError when absent)."""
        by_name = {stage.name: stage for stage in self.stages}
        return by_name[name]

    # -- driving ----------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when the trace is drained and the ROB is empty."""
        return self.fetch.done and self.rob.empty

    def run(self, max_uops: Optional[int] = None, max_cycles: Optional[int] = None) -> SimStats:
        """Simulate until done / ``max_uops`` committed / ``max_cycles``.

        Before each cycle the stages are asked for their next event; the
        first that answers ``now`` makes it an ordinary :meth:`step`.
        When all answer later, the cycles up to the earliest answer are
        applied in bulk (:meth:`_skip`), clamped so that the
        deadlock-trap cycle and the ``max_cycles`` bound are reached
        exactly as by stepping.

        Fetch is asked first: on the correct path it ticks every cycle,
        so on most busy cycles its answer alone settles the question.
        The others are asked in tick order. Rename's question peeks
        nothing (the head it reads is already built, or it answers the
        virtual group's ready cycle), and Issue's reads the ready lists,
        which hold only live µops, so no question has a side effect.
        """
        stats = self.stats
        step = self.step if self.phase_profile is None else self._step_profiled
        fetch = self.stage("fetch")
        next_events = [fetch.next_event]
        next_events += [stage.next_event for stage in self.stages if stage is not fetch]
        last_commit = self.last_commit
        trap_distance = self.DEADLOCK_LIMIT + 1
        uop_budget = float("inf") if max_uops is None else max_uops
        cycle_budget = float("inf") if max_cycles is None else max_cycles
        while (not self.done and stats.committed_uops < uop_budget and stats.cycles < cycle_budget):
            now = self.now
            until = NEVER
            for next_event in next_events:
                due = next_event(now)
                if due <= now:
                    break
                if due < until:
                    until = due
            else:
                until = min(
                    until, last_commit.value + trap_distance, now + cycle_budget - stats.cycles
                )
                if until > now:
                    self._skip(now, until)
                    continue
            step()
        return stats

    def run_with_warmup(self, warmup_uops: int, measure_uops: int) -> SimStats:
        """Warm structures, then measure: returns warmed-region deltas.

        Both volumes count from the current committed position, so a
        restored or fast-forwarded simulator measures the same region
        shape as a cold one (functional warming never commits). The
        run ends on the µop budget or the end of the trace; a wedged
        machine raises after :attr:`DEADLOCK_LIMIT` idle cycles.
        """
        start = self.stats.committed_uops
        self.run(max_uops=start + warmup_uops)
        baseline = self.stats.copy()
        self.run(max_uops=start + warmup_uops + measure_uops)
        return self.stats.delta_since(baseline)

    def functional_warmup(self, trace: TraceSource, uops: int) -> None:
        """Timing-free cache/predictor warmup from a *separate* trace
        instance (Section 3.2); see :mod:`repro.pipeline.warming`."""
        warm_stream(self, trace, uops)

    def fast_forward(self, uops: int) -> int:
        """Functionally consume ``uops`` from this simulator's *own* trace
        (cursor advances; the policy's hit/miss filter trains); returns
        the count consumed. See :mod:`repro.pipeline.warming`."""
        return warm_stream(self, self.trace, uops, train_policy=True)

    def step(self) -> None:
        """Advance the machine one cycle: tick every stage in order."""
        now = self.now
        self.l1_miss.value = self.l1_access.value = False
        self.fus.new_cycle()
        for stage in self.stages:
            stage.tick(now)
        self.stats.cycles += 1
        self.now = now + 1
        if now - self.last_commit.value > self.DEADLOCK_LIMIT:
            self._raise_deadlock(now)

    def _skip(self, now: int, until: int) -> None:
        """Apply the quiescent cycles ``now .. until-1`` in bulk: the
        driver's prologue, each stage's ``skip`` and the cycle count."""
        self.l1_miss.value = self.l1_access.value = False
        self.fus.new_cycle()
        for stage in self.stages:
            stage.skip(now, until)
        self.stats.cycles += until - now
        if self.phase_profile is not None:
            self.phase_profile.cycles += until - now
        self.now = until

    def _step_profiled(self) -> None:
        """:meth:`step` twin with per-stage timers (repro.perf.instrument)."""
        profile = self.phase_profile
        now = self.now
        self.l1_miss.value = self.l1_access.value = False
        self.fus.new_cycle()
        seconds = profile.seconds
        for stage in self.stages:
            start = perf_counter()
            stage.tick(now)
            seconds[stage.name] = seconds.get(stage.name, 0.0) + perf_counter() - start
        profile.cycles += 1
        self.stats.cycles += 1
        self.now = now + 1
        if now - self.last_commit.value > self.DEADLOCK_LIMIT:
            self._raise_deadlock(now)

    def _raise_deadlock(self, now: int) -> None:
        raise SimulationError(
            f"no commit for {self.DEADLOCK_LIMIT} cycles at cycle {now}; "
            f"ROB={len(self.rob)}, IQ={len(self.iq)}, recovery={len(self.recovery)}"
        )

    # -- state protocol (repro.checkpoint) --------------------------------

    def state_dict(self) -> Dict:
        """Complete machine state as plain data (every component through the
        uniform protocol) — see :mod:`repro.pipeline.checkpointing`."""
        return checkpointing.machine_state_dict(self)

    def load_state_dict(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this simulator
        (same configuration, equivalent trace source required)."""
        checkpointing.load_machine_state_dict(self, state)

    # -- introspection helpers (tests, examples) --------------------------

    def occupancy(self) -> Dict[str, int]:
        """Current ROB/IQ/recovery/LQ/SQ occupancies."""
        return {
            "rob": len(self.rob),
            "iq": len(self.iq),
            "recovery": len(self.recovery),
            "lq": len(self.lsq.loads),
            "sq": len(self.lsq.stores),
        }
