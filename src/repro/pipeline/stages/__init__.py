"""Stage objects for the out-of-order core, in declarative tick order.

The machine is a tuple of :class:`~repro.pipeline.stages.base.Stage`
objects connected by the wires and latches of
:mod:`repro.pipeline.ports`. The driver
(:class:`repro.pipeline.cpu.Simulator`) ticks them in :data:`TICK_ORDER`
— back-to-front, so same-cycle producer→consumer flows resolve
naturally (a µop committed this cycle frees its ROB slot for this
cycle's rename; a wakeup fired this cycle issues this cycle).

Architectural front-to-back order vs. simulation tick order::

    Fetch -> Decode -> Rename -> Dispatch -> Issue -> Execute
          -> Writeback -> Commit          (the machine)
    commit, writeback, execute, wakeup, issue, rename, fetch,
    bookkeep                              (the tick order, reversed)

Decode is fused into the Fetch stage (the frontend pipe models the
combined latency) and Dispatch into Rename (allocation is atomic across
RAT/ROB/IQ/LSQ); Wakeup/Issue are the scheduler's two halves; Bookkeep
is the end-of-cycle pseudo-stage. ``docs/ARCHITECTURE.md`` is the
normative statement of this contract.

Swapping or extending the machine never edits the driver loop:

* ``stage_overrides={"issue": MyScheduler}`` replaces a stage class by
  name (subclass the stage you are changing — this is the scheduler
  seam and the instrumentation hook: the event bus installs its
  emitting stages this way, see :mod:`repro.telemetry.stages`);
* ``extra_stages=[MyProbe]`` inserts additional stages, anchored by
  each class's ``after`` attribute.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Type

from repro.pipeline.stages.base import SimulationError, Stage
from repro.pipeline.stages.bookkeep import Bookkeep
from repro.pipeline.stages.commit import Commit
from repro.pipeline.stages.execute import Execute
from repro.pipeline.stages.fetch import Fetch
from repro.pipeline.stages.issue import Issue
from repro.pipeline.stages.rename import Rename
from repro.pipeline.stages.wakeup import Wakeup
from repro.pipeline.stages.writeback import Writeback

#: The canonical tick order (backwards through the machine). Tests
#: assert this against the order documented in ``docs/ARCHITECTURE.md``.
TICK_ORDER: Tuple[str, ...] = (
    "commit",
    "writeback",
    "execute",
    "wakeup",
    "issue",
    "rename",
    "fetch",
    "bookkeep",
)

#: Default stage class per tick-order slot.
DEFAULT_STAGES: Dict[str, Type[Stage]] = {
    "commit": Commit,
    "writeback": Writeback,
    "execute": Execute,
    "wakeup": Wakeup,
    "issue": Issue,
    "rename": Rename,
    "fetch": Fetch,
    "bookkeep": Bookkeep,
}


def build_stages(
    sim, overrides: Optional[Dict[str, Type[Stage]]] = None, extra: Iterable[Type[Stage]] = ()
) -> Tuple[Stage, ...]:
    """Instantiate and wire the machine's stage list for ``sim``.

    ``overrides`` maps tick-order names to replacement classes (the
    scheduler-swap seam); ``extra`` is an iterable of additional stage
    classes, each inserted after the stage named by its ``after``
    attribute (appended at the end when ``after`` is ``None``).
    Stage names must come out unique — they key the instrumentation
    and checkpoint tables.
    """
    classes = dict(DEFAULT_STAGES)
    if overrides:
        unknown = sorted(set(overrides) - set(classes))
        if unknown:
            raise ValueError(
                f"unknown stage override(s) {', '.join(unknown)}; "
                f"tick order is {', '.join(TICK_ORDER)}"
            )
        classes.update(overrides)
    stages = [classes[name](sim) for name in TICK_ORDER]
    for stage_cls in extra:
        stage = stage_cls(sim)
        anchor = stage.after
        if anchor is None:
            stages.append(stage)
            continue
        names = [s.name for s in stages]
        if anchor not in names:
            raise ValueError(
                f"extra stage {stage.name!r} anchors after unknown " f"stage {anchor!r}"
            )
        stages.insert(names.index(anchor) + 1, stage)
    names = [s.name for s in stages]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate stage name(s): {', '.join(dupes)}")
    return tuple(stages)


__all__ = [
    "Bookkeep",
    "Commit",
    "DEFAULT_STAGES",
    "Execute",
    "Fetch",
    "Issue",
    "Rename",
    "SimulationError",
    "Stage",
    "TICK_ORDER",
    "Wakeup",
    "Writeback",
    "build_stages",
]
