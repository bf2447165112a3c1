"""Performance instrumentation for the simulator's cycle loop.

:mod:`repro.perf.instrument` holds a :class:`PhaseProfile` that the
simulator fills with per-stage wall time (one bucket per entry of the
pipeline tick order, ``docs/ARCHITECTURE.md``) and event counters
(replay storms). Attaching one swaps :meth:`Simulator.step` for an
instrumented twin; with none attached the hot loop is untouched.

Simulator speed itself is measured by the layered benchmark in
``perfbench/`` (``python3 perfbench/run.py --workload W``), which passes
a :class:`PhaseProfile` through ``simulate_payload(phase_profile=)`` for
its per-stage timers.
"""

from repro.perf.instrument import PhaseProfile

__all__ = ["PhaseProfile"]
