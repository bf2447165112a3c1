"""The benchmark's three workloads: their inputs, one timed pass, and checks.

Every workload runs the Figure-8 series: Baseline_0 with a dual-ported
L1D against SpecSched_4, SpecSched_4_Combined and SpecSched_4_Crit on a
banked L1D. The load is a closed loop: one cell at a time, serially,
through the engine with one job (the inline backend) and no threads or
pools. A cell is one operation; it fails when it raises or when its
counters differ from what they must be (see :mod:`run`).

* ``fig8-compute`` — full-detailed cells over gzip, swim and xalancbmk,
  live generators with functional warmup. Nearly every cycle issues and
  commits, so the detailed stage loop does most of the work.
* ``fig8-memory`` — the same cells over mcf and libquantum. Most cycles
  neither issue nor commit, and libquantum's fetch floods the frontend
  pipe, so idle cycles, the trace source and memory dominate.
* ``sampled-grid`` — a checkpoint-chained SMARTS sweep through
  :func:`repro.experiments.runner.run_sweep` over recordings of gzip,
  swim, mcf and xalancbmk captured in setup, cold in a fresh cache
  directory and then rerun warm from that cache.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from repro.checkpoint.sampling import SamplingSpec
from repro.common.stats import SimStats
from repro.core.presets import make_config
from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    Sweep,
    SweepSeries,
    base_cell_payload,
    cell_payload,
    code_version,
    run_cells,
    simulate_payload,
)
from repro.experiments.runner import Settings, run_sweep
from repro.traces import format as trace_format
from repro.traces.registry import resolve_workload

#: Modules a set-up imports; a fresh interpreter imports them to time it.
IMPORTS = ("repro.experiments.runner", "repro.checkpoint.sampling",
           "repro.traces.format")

#: (preset, banked L1D) for every Figure-8 series.
FIG8_SERIES: Tuple[Tuple[str, bool], ...] = (
    ("Baseline_0", False),
    ("SpecSched_4", True),
    ("SpecSched_4_Combined", True),
    ("SpecSched_4_Crit", True),
)

#: Cells run serially, in-process, with no persistent cache.
SERIAL_UNCACHED = EngineOptions(jobs=1, cache_dir="off")


@dataclass
class PassResult:
    """What one timed pass did and produced."""

    #: Cell id -> counter dict (``SimStats.to_dict``).
    stats: Dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Detailed µops committed, warmup included.
    detailed_uops: int = 0
    #: Stream µops the pass covered, functional warming included.
    span_uops: int = 0
    rerun_s: float = 0.0
    rerun_hits: int = 0
    rerun_cells: int = 0


def _add_detailed(result: PassResult, stats: SimStats, warmup: int) -> None:
    result.detailed_uops += warmup + stats.committed_uops


class Fig8Cells:
    """Full-detailed Figure-8 cells over live generators."""

    def __init__(self, programs: Tuple[Tuple[str, int, int, int], ...]
                 ) -> None:
        #: (program, warmup µops, measured µops, functional warmup µops)
        self.programs = programs

    def prepare(self, seed: int, workdir: Path) -> List[tuple]:
        """Resolve the programs and build every cell's payload."""
        code_version.cache_clear()
        cells = []
        for name, warmup, measure, functional in self.programs:
            workload = resolve_workload(name)
            for preset, banked in FIG8_SERIES:
                payload = cell_payload(
                    preset, workload, banked=banked, warmup_uops=warmup,
                    measure_uops=measure, functional_warmup_uops=functional,
                    seed=seed)
                cells.append((f"{name}/{preset}", payload))
        return cells

    def run_pass(self, cells: List[tuple], workdir: Path) -> PassResult:
        result = PassResult()
        for cell_id, payload in cells:
            result.attempted += 1
            try:
                [stats] = run_cells([payload], options=SERIAL_UNCACHED,
                                    cache=ResultCache(None, memory={}))
            except Exception as exc:        # a failed operation, not a crash
                result.failed += 1
                print(f"perfbench: {cell_id} failed: {exc!r}",
                  file=sys.stderr, flush=True)
                continue
            result.stats[cell_id] = stats.to_dict()
            _add_detailed(result, stats, payload["warmup_uops"])
            result.span_uops += (payload["functional_warmup_uops"]
                                 + payload["warmup_uops"]
                                 + payload["measure_uops"])
        return result

    def live_check(self, cells, result: PassResult) -> Tuple[int, int]:
        """Fig8 cells run the live generators already: nothing to check."""
        return 0, 0

    def detailed_ipc(self, seed: int) -> Dict[str, float]:
        return {}


class _IntervalRecorder(ResultCache):
    """Result cache that also keeps each stored interval's counters under
    ``program/config/index``: the sweep's own result holds only sums."""

    def __init__(self, directory) -> None:
        super().__init__(directory, memory={})
        self.intervals: Dict[str, dict] = {}

    def put(self, key, stats, payload=None) -> None:
        super().put(key, stats, payload)
        if payload is not None and "sampling" in payload:
            cell_id = (f"{payload['workload']['name']}/"
                       f"{payload['config']['name']}/"
                       f"{payload['sampling']['index']}")
            self.intervals[cell_id] = stats.to_dict()


class SampledGrid:
    """A cells-chained sampled sweep over recordings, then a warm rerun."""

    def __init__(self, programs: Tuple[str, ...], spec: SamplingSpec,
                 margin_uops: int) -> None:
        self.programs = programs
        self.spec = spec.validate()
        #: Recorded beyond the span so detailed fetch-ahead never runs
        #: off the end of a recording (checked by :meth:`live_check`).
        self.margin_uops = margin_uops

    def prepare(self, seed: int, workdir: Path) -> dict:
        """Record every program, then describe the sweep over the
        recordings."""
        code_version.cache_clear()
        workdir.mkdir(parents=True, exist_ok=True)
        recordings = []
        for name in self.programs:
            live = resolve_workload(name)
            path = workdir / f"{name}{trace_format.TRACE_SUFFIX}"
            trace_format.capture(
                live.build_trace(seed), path,
                self.spec.span_uops + self.margin_uops, wp_seed=seed,
                provenance={"workload": name, "is_fp": live.is_fp})
            recordings.append(str(path))
        sweep = Sweep(
            name="sampled-grid", baseline="Baseline_0",
            series=tuple(SweepSeries(preset, preset, banked=banked)
                         for preset, banked in FIG8_SERIES),
            workloads=tuple(recordings), seed=seed,
            sampling=self.spec.to_dict()).validate()
        return {"seed": seed, "sweep": sweep, "recordings": recordings,
                "settings": Settings(workloads=tuple(recordings))}

    def run_pass(self, prepared: dict, workdir: Path) -> PassResult:
        options = EngineOptions(jobs=1, cache_dir=str(workdir / "cache"))
        cells = len(FIG8_SERIES) * len(self.programs) * self.spec.intervals
        result = PassResult(attempted=2 * cells, rerun_cells=cells)
        cold = _IntervalRecorder(options.cache_path())
        try:
            first = run_sweep(prepared["sweep"], settings=prepared["settings"],
                              options=options, cache=cold)
            start = perf_counter()
            warm = ResultCache(options.cache_path(), memory={})
            again = run_sweep(prepared["sweep"],
                              settings=prepared["settings"],
                              options=options, cache=warm)
            result.rerun_s = perf_counter() - start
        except Exception as exc:            # a failed operation, not a crash
            result.failed = result.attempted
            print(f"perfbench: sampled sweep failed: {exc!r}",
                  file=sys.stderr, flush=True)
            return result
        result.rerun_hits = warm.memory_hits + warm.disk_hits
        result.stats = cold.intervals
        result.failed = cells - len(cold.intervals) + warm.misses
        for label in first.labels():
            for workload in first.workloads:
                if (first.get(label, workload).to_dict()
                        != again.get(label, workload).to_dict()):
                    result.failed += self.spec.intervals
        for stats in cold.intervals.values():
            _add_detailed(result, SimStats.from_dict(stats),
                          self.spec.warmup_uops)
        result.span_uops = (self.spec.span_uops * len(FIG8_SERIES)
                            * len(self.programs))
        return result

    def _live_payload(self, name: str, preset: str, banked: bool,
                      seed: int) -> dict:
        payload = base_cell_payload(
            make_config(preset, banked=banked), resolve_workload(name),
            warmup_uops=self.spec.warmup_uops,
            measure_uops=self.spec.interval_uops, functional_warmup_uops=0,
            seed=seed)
        payload["sampling"] = {"spec": self.spec.to_dict(),
                               "index": self.spec.intervals - 1}
        return payload

    def live_check(self, prepared: dict, result: PassResult
                   ) -> Tuple[int, int]:
        """The last interval of every program, simulated from its live
        generator, must equal the interval simulated from the recording —
        it is the one whose fetch-ahead reaches furthest into the
        recording. Returns (attempted, failed)."""
        attempted = failed = 0
        last = self.spec.intervals - 1
        for name in self.programs:
            for preset, banked in FIG8_SERIES[:2]:
                attempted += 1
                live = simulate_payload(self._live_payload(
                    name, preset, banked, prepared["seed"]))
                if live != result.stats.get(f"{name}/{preset}/{last}"):
                    failed += 1
                    print(f"perfbench: recording of {name} diverges from "
                          f"the live generator under {preset}",
                          file=sys.stderr, flush=True)
        return attempted, failed

    def detailed_ipc(self, seed: int) -> Dict[str, float]:
        """Per program/config IPC of one detailed run over the sampled
        span: the reference that sampled IPC is compared against."""
        out = {}
        for name in self.programs:
            workload = resolve_workload(name)
            for preset, banked in FIG8_SERIES:
                payload = cell_payload(
                    preset, workload, banked=banked,
                    warmup_uops=self.spec.offset_uops,
                    measure_uops=self.spec.span_uops - self.spec.offset_uops,
                    functional_warmup_uops=0, seed=seed)
                out[f"{name}/{preset}"] = SimStats.from_dict(
                    simulate_payload(payload)).ipc
        return out

    def sampled_ipc_err_pct(self, stats: Dict[str, dict],
                            detailed: Dict[str, float]) -> float:
        """Mean relative error (%) of each cell's interval-mean IPC."""
        errors = []
        for cell_id, reference in detailed.items():
            ipcs = [SimStats.from_dict(stats[f"{cell_id}/{index}"]).ipc
                    for index in range(self.spec.intervals)]
            errors.append(abs(sum(ipcs) / len(ipcs) - reference) / reference)
        return 100.0 * sum(errors) / len(errors)


WORKLOADS = {
    "fig8-compute": Fig8Cells((
        ("gzip", 1_000, 12_000, 20_000),
        ("swim", 1_000, 12_000, 20_000),
        ("xalancbmk", 1_000, 12_000, 20_000),
    )),
    "fig8-memory": Fig8Cells((
        ("mcf", 1_000, 8_000, 20_000),
        ("libquantum", 500, 3_000, 20_000),
    )),
    "sampled-grid": SampledGrid(
        ("gzip", "swim", "mcf", "xalancbmk"),
        SamplingSpec(intervals=3, interval_uops=1_000, warmup_uops=300,
                     period_uops=10_000, offset_uops=10_000),
        margin_uops=20_000),
}
