"""The paper's result grids: one registry entry per evaluation figure.

:data:`FIGURES` maps each ``repro figure`` key to a :class:`Figure`: the
configuration grid (a :class:`Sweep`), the (label, reference) pairs whose
breakdown and summary rows are printed, and the value the paper states
for each summary metric it gives. :func:`run_figure` runs one grid;
:mod:`repro.experiments.report` renders the paper-style rows.
EXPERIMENTS.md records paper-vs-measured from ``repro figure`` output.

Reference frame: as in Section 5, everything is normalized to
**Baseline_0 with a dual-ported L1D** (the ideal machine in this context).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.experiments.engine import EngineOptions, Sweep, SweepSeries
from repro.experiments.runner import ExperimentResult, Settings, run_sweep

#: Every figure normalizes to this series.
BASELINE = SweepSeries("Baseline_0", "Baseline_0", banked=False)


@dataclass(frozen=True)
class Summary:
    """One printed row pair: ``label``'s issued-µop breakdown and, when
    ``reference`` is set, its :func:`~repro.experiments.report.summary_line`
    against ``reference``. ``paper`` holds the paper's value for the
    summary metrics it states (keys from
    :data:`~repro.experiments.report.SUMMARY_METRICS`; speedup as a
    signed fraction, reductions as positive fractions)."""

    label: str
    reference: Optional[str] = None
    paper: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Figure:
    """One paper result grid and the rows ``repro figure`` prints for it."""

    sweep: Sweep
    summaries: Tuple[Summary, ...] = ()


def _sweep(name: str, *series: SweepSeries) -> Sweep:
    return Sweep(name=name, baseline=BASELINE.label,
                 series=(BASELINE,) + series).validate()


def _banked(preset: str) -> SweepSeries:
    return SweepSeries(preset, preset, banked=True)


FIGURES: Dict[str, Figure] = {
    # Figure 3: cost of *conservative* scheduling as the issue-to-execute
    # delay grows, plus the single-load-port bar.
    "3": Figure(_sweep(
        "fig3",
        SweepSeries("Baseline_0, 1 load/cycle", "Baseline_0", banked=False,
                    load_ports=1),
        *(SweepSeries(f"Baseline_{d}", f"Baseline_{d}", banked=False)
          for d in (2, 4, 6)))),
    # Figure 4: speculative scheduling with dual-ported vs banked L1
    # (performance, a) and the issued-µop breakdown of the banked case (b).
    "4": Figure(
        _sweep("fig4", *(SweepSeries(f"SpecSched_{d} ({kind})",
                                     f"SpecSched_{d}", banked=kind == "banked")
                         for d in (2, 4, 6) for kind in ("dual", "banked"))),
        (Summary("SpecSched_4 (banked)"),)),
    # Figure 5: Schedule Shifting on the banked L1.
    "5": Figure(
        _sweep("fig5", _banked("SpecSched_4"), _banked("SpecSched_4_Shift")),
        (Summary("SpecSched_4_Shift", "SpecSched_4",
                 {"speedup": 0.029, "bank": 0.748}),)),
    # Figure 7: hit/miss filtering (global counter alone, filter+counter).
    "7": Figure(
        _sweep("fig7", _banked("SpecSched_4"), _banked("SpecSched_4_Ctr"),
               _banked("SpecSched_4_Filter")),
        (Summary("SpecSched_4_Ctr", "SpecSched_4", {"miss": 0.593}),
         Summary("SpecSched_4_Filter", "SpecSched_4", {"miss": 0.650}))),
    # Figure 8: the combined mechanisms and criticality gating. The Crit
    # row carries the abstract's headline numbers.
    "8": Figure(
        _sweep("fig8", _banked("SpecSched_4"), _banked("SpecSched_4_Combined"),
               _banked("SpecSched_4_Crit")),
        (Summary("SpecSched_4_Combined", "SpecSched_4",
                 {"speedup": 0.037, "total": 0.682}),
         Summary("SpecSched_4_Crit", "SpecSched_4",
                 {"speedup": 0.034, "total": 0.906, "bank": 0.780,
                  "miss": 0.965, "issued": 0.134}))),
    # Section 5.3's closing sweep: _Crit vs plain SpecSched at D=2 and 6
    # (the paper gives "about 90%" fewer replays at both delays).
    "delay": Figure(
        _sweep("delay_sweep", *(_banked(f"SpecSched_{d}{suffix}")
                                for d in (2, 6) for suffix in ("", "_Crit"))),
        (Summary("SpecSched_2_Crit", "SpecSched_2",
                 {"speedup": 0.023, "total": 0.90, "issued": 0.112}),
         Summary("SpecSched_6_Crit", "SpecSched_6",
                 {"speedup": 0.048, "total": 0.90, "issued": 0.187}))),
}


def run_figure(key: str, settings: Optional[Settings] = None,
               options: Optional[EngineOptions] = None) -> ExperimentResult:
    """Run the grid of ``FIGURES[key]`` (settings default to the env)."""
    return run_sweep(FIGURES[key].sweep, settings, options=options)
