"""Lightweight cycle-loop instrumentation.

A :class:`PhaseProfile` accumulates wall-clock seconds per pipeline phase
and counts the cycles it timed. The simulator only pays for it when one is
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
    """Per-phase wall time of the instrumented cycle loop.

    ``seconds`` maps phase name -> accumulated wall seconds; ``cycles``
    counts instrumented cycles (stepped and skipped) so per-cycle costs
    can be derived.
    """

    __slots__ = ("seconds", "cycles")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.cycles = 0
