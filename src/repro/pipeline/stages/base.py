"""The stage protocol: what every pipeline stage object implements.

A stage is one tick-ordered slice of the machine. The driver
(:class:`repro.pipeline.cpu.Simulator`) holds a tuple of stages and, each
cycle, calls ``tick(now)`` on every one in list order — there is no other
control flow between stages. A stage's constructor receives the simulator
being wired and binds direct references to the structures, wires and
latches it touches (binding once keeps the per-cycle path as cheap as
the pre-decomposition method calls). A stage keeps no reference to the
simulator itself, and nothing it hands to a shared structure (a wakeup
router, a callback) may point back at the stage: the machine stays
acyclic, so a finished simulator is freed by reference counting. The
engine runs every cell with the cyclic garbage collector paused
(:mod:`repro.experiments.engine`), which relies on that.

Contract (normative statement in ``docs/ARCHITECTURE.md``):

* ``name`` identifies the stage in the tick order and the per-stage
  instrumentation breakdown (:mod:`repro.perf.instrument`) — names
  must be unique per machine;
* ``tick(now)`` advances the stage one cycle and communicates only
  through wires, latches and the shared structures it bound;
* ``next_event(now)`` returns the first cycle ``>= now`` whose tick the
  stage cannot reproduce in bulk (:data:`NEVER` when only another
  stage's event can give it work), and ``skip(now, until)`` applies the
  ticks of cycles ``now .. until-1`` in bulk. The driver calls ``skip``
  only when every stage answered a cycle past ``now``, so a stage may
  assume nothing else moves during the span. The defaults (answer
  ``now``, skip nothing) keep the stage ticking every cycle; a subclass
  that overrides ``tick`` without redefining ``next_event`` gets the
  default ``next_event`` back, so an observer sees every cycle unless
  it implements both methods;
* a stage owns no machine state: everything a checkpoint must carry
  lives in the shared structures, wires and latches the driver
  serializes, so a stage keeps only bound references and constants;
* ``after`` (class attribute) names the insertion anchor used when the
  stage is added through ``extra_stages`` — see
  :func:`repro.pipeline.stages.build_stages`.
"""

from __future__ import annotations

from typing import Dict, Optional


#: ``next_event`` answer of a stage that has nothing due on its own.
NEVER = 1 << 62


class SimulationError(RuntimeError):
    """Raised when a model invariant is violated (bug trap, not recovery)."""


def first_due(slots: Dict[int, object], now: int) -> int:
    """The earliest cycle of a cycle-keyed event table (``now`` when an
    entry is due now, :data:`NEVER` when the table is empty)."""
    if now in slots:
        return now
    return min(slots) if slots else NEVER


class Stage:
    """Base class for pipeline stages (see the module docstring for the
    full protocol contract)."""

    #: Stage name: unique per machine, keys the instrumentation table.
    name = "stage"

    #: For ``extra_stages``: name of the stage to insert after
    #: (``None`` appends at the end of the tick order).
    after: Optional[str] = None

    def __init__(self, sim) -> None:
        """Bind the stage to the machine being wired.

        Subclasses bind direct references to the structures they touch
        and keep none to ``sim`` itself (see the module docstring).
        """

    def __init_subclass__(cls, **kwargs) -> None:
        """A class that redefines ``tick`` but not ``next_event`` ticks
        every cycle: the inherited skip rules described another tick."""
        super().__init_subclass__(**kwargs)
        if "tick" in cls.__dict__ and "next_event" not in cls.__dict__:
            cls.next_event = Stage.next_event

    def tick(self, now: int) -> None:
        """Advance the stage one cycle."""
        raise NotImplementedError

    def next_event(self, now: int) -> int:
        """First cycle ``>= now`` whose tick cannot be skipped (default:
        ``now``, i.e. tick every cycle)."""
        return now

    def skip(self, now: int, until: int) -> None:
        """Apply the ticks of cycles ``now .. until-1`` in bulk (default:
        nothing, for stages whose quiescent ticks do nothing)."""
