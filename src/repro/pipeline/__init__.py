"""Pipeline: the stage-decomposed out-of-order core and run helpers.

Layout (see ``docs/ARCHITECTURE.md`` for the full contract):

* :mod:`repro.pipeline.cpu` — the :class:`Simulator` driver (stage-list
  tick loop, run helpers, state protocol entry points);
* :mod:`repro.pipeline.stages` — the stage objects, in tick order;
* :mod:`repro.pipeline.ports` — typed ports, wires and delay-queue
  latches connecting the stages;
* :mod:`repro.pipeline.warming` — timing-free warmup/fast-forward;
* :mod:`repro.pipeline.checkpointing` — the component codec
  registration behind ``state_dict``/``load_state_dict``;
* :mod:`repro.pipeline.sim` — :func:`run_workload`, the driver of one
  cell (plain or sampled), and the default µop volumes.
"""

from repro.pipeline.cpu import SimulationError, Simulator
from repro.pipeline.sim import RunResult, run_workload
from repro.pipeline.stages import TICK_ORDER, Stage, build_stages

__all__ = [
    "RunResult",
    "SimulationError",
    "Simulator",
    "Stage",
    "TICK_ORDER",
    "build_stages",
    "run_workload",
]
