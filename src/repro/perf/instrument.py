"""Lightweight cycle-loop instrumentation.

A :class:`PhaseProfile` accumulates wall-clock seconds per pipeline phase
plus a few event counters. The simulator only pays for it when one is
attached (:meth:`repro.pipeline.cpu.Simulator` swaps in an instrumented
``step`` at construction); the default hot loop has zero instrumentation
overhead — not even a branch.

Phases are the machine's stages, timed in tick order: one bucket per
entry of :data:`repro.pipeline.stages.TICK_ORDER` (``commit``,
``writeback``, ``execute``, ``wakeup``, ``issue``, ``rename``,
``fetch``, ``bookkeep``). Custom stages inserted through
``extra_stages`` get their own buckets on first tick — a profiled run
with the metric probes attached shows their cost as its own line
(e.g. ``telemetry_occupancy``), keeping "how much does observing cost"
answerable with the same tool as every other phase question.
"""

from __future__ import annotations

from typing import Dict

from repro.pipeline.stages import TICK_ORDER

#: Canonical phase order (also the reporting order) — the stage tick
#: order, so the breakdown always matches the wired machine.
PHASES = TICK_ORDER


class PhaseProfile:
    """Per-phase wall time + cycle-loop event counters.

    ``seconds`` maps phase name -> accumulated wall seconds; ``cycles``
    counts instrumented cycles so per-cycle costs can be derived. The
    replay-storm counter tracks squash events observed while profiling
    (they are the classic cause of pathological simulation slowdowns:
    every storm re-arms the waiting µops it touched).
    """

    __slots__ = ("seconds", "cycles", "replay_storms", "uops_committed")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.cycles = 0
        self.replay_storms = 0
        self.uops_committed = 0

    # -- accumulation (called from the instrumented step) ---------------

    def add(self, phase: str, seconds: float) -> None:
        # .get(): custom stages (extra_stages) get a bucket on first use.
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds

    def merge(self, other: "PhaseProfile") -> None:
        for phase, seconds in other.seconds.items():
            self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.cycles += other.cycles
        self.replay_storms += other.replay_storms
        self.uops_committed += other.uops_committed

    # -- reporting -------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def fractions(self) -> Dict[str, float]:
        """Phase -> share of total instrumented time (0 when untimed)."""
        total = self.total_seconds
        if total <= 0.0:
            return {phase: 0.0 for phase in self.seconds}
        return {phase: seconds / total for phase, seconds in self.seconds.items()}

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready flat view (seconds per phase + counters)."""
        out: Dict[str, float] = {
            f"{phase}_seconds": seconds for phase, seconds in self.seconds.items()
        }
        out["cycles"] = self.cycles
        out["replay_storms"] = self.replay_storms
        out["uops_committed"] = self.uops_committed
        return out

    def summary(self) -> str:
        """One line per phase, largest share first."""
        fractions = self.fractions()
        rows = sorted(self.seconds.items(), key=lambda kv: -kv[1])
        # Custom stage names (telemetry_occupancy, ...) run longer than
        # the built-in phases; keep the columns aligned for any mix.
        width = max(10, *(len(phase) for phase in self.seconds))
        lines = [
            f"  {phase:{width}s} {seconds:8.3f}s  " f"{fractions[phase]:6.1%}"
            for phase, seconds in rows
        ]
        lines.append(f"  {'cycles':{width}s} {self.cycles}")
        lines.append(f"  {'storms':{width}s} {self.replay_storms}")
        return "\n".join(lines)
