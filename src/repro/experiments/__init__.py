"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.experiments.engine` — the parallel execution engine:
  process-pool cell dispatch, the persistent content-hash result cache,
  and the declarative :class:`Sweep` API;
* :mod:`repro.experiments.runner` — grid runner over (configuration,
  workload), funnelling through the engine;
* :mod:`repro.experiments.figures` — the registry of the paper's result
  grids (Figures 3, 4, 5, 7, 8 and the Section-5.3 delay sweep) with the
  paper's values for their summary rows;
* :mod:`repro.experiments.tables` — Table 1 / Table 2 renderers;
* :mod:`repro.experiments.report` — ASCII table formatting;
* :mod:`repro.experiments.timeline` — the pipeline timing diagrams of
  Figures 1, 2 and 6.
"""

from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    Sweep,
    SweepSeries,
)
from repro.experiments.runner import ExperimentResult, Settings, run_sweep
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.tables import render_table1, table2
from repro.experiments.report import format_table

__all__ = [
    "EngineOptions",
    "ExperimentResult",
    "FIGURES",
    "ResultCache",
    "Settings",
    "Sweep",
    "SweepSeries",
    "format_table",
    "render_table1",
    "run_figure",
    "run_sweep",
    "table2",
]
