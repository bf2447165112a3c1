"""Grid runner: (configuration x workload) sweeps over the engine.

Every figure, table and sweep funnels through :func:`run_sweep`, so
simulation volume is controlled in one place. Execution itself — worker
processes, the persistent result cache, cell hashing — lives in
:mod:`repro.experiments.engine`; this module owns the sweep-level
bookkeeping (:class:`Settings`, :class:`ExperimentResult`) and the
process-wide in-memory memo shared by every sweep.

Scale knobs come from the environment:

* ``REPRO_WORKLOADS`` — ``subset`` (default, 12 diverse workloads),
  ``full`` (all 36), or a comma-separated list of registry names (suite
  workloads, RV32I programs or recorded traces; see
  :mod:`repro.traces.registry`);
* ``REPRO_WARMUP`` / ``REPRO_MEASURE`` / ``REPRO_FUNC_WARMUP`` — µop
  counts per run (defaults 3000/12000/60000, the ``DEFAULT_*`` constants
  of :mod:`repro.pipeline.sim`: small enough for CI, large enough for
  stable shapes); a bad value is an error naming the variable;
* ``REPRO_JOBS`` — worker processes per sweep (default 1 = serial);
* ``REPRO_CACHE_DIR`` — persistent result cache directory
  (``off`` disables; see :mod:`repro.experiments.engine`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.mathutil import geomean
from repro.common.stats import SimStats
from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    Sweep,
    SweepSeries,
    cell_payload,
    checkpoint_store,
    run_cells,
)
from repro.pipeline.sim import (
    DEFAULT_FUNCTIONAL_WARMUP_UOPS,
    DEFAULT_MEASURE_UOPS,
    DEFAULT_WARMUP_UOPS,
    RunResult,
)
from repro.traces.registry import resolve_workload
from repro.workloads.suite import DEFAULT_SUBSET, SUITE


def _env_count(name: str, default: int, minimum: int) -> int:
    """An integer µop volume from the environment, at least ``minimum``."""
    text = os.environ.get(name, "").strip()
    if not text:
        return default
    try:
        value = int(text)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        kind = "a positive" if minimum > 0 else "a non-negative"
        raise ValueError(f"{name} must be {kind} integer, not {text!r}")
    return value


@dataclass(frozen=True)
class Settings:
    """Simulation volume for one experiment sweep."""

    workloads: Tuple[str, ...]
    warmup_uops: int = DEFAULT_WARMUP_UOPS
    measure_uops: int = DEFAULT_MEASURE_UOPS
    functional_warmup_uops: int = DEFAULT_FUNCTIONAL_WARMUP_UOPS
    seed: int = 1

    @staticmethod
    def from_env() -> "Settings":
        """Settings from the ``REPRO_*`` variables: a one-line
        ``ValueError`` for a bad count, ``KeyError`` for an unknown
        workload name."""
        selector = os.environ.get("REPRO_WORKLOADS", "").strip() or "subset"
        if selector == "full":
            names: Tuple[str, ...] = tuple(SUITE)
        elif selector == "subset":
            names = tuple(DEFAULT_SUBSET)
        else:
            names = tuple(n.strip() for n in selector.split(",") if n.strip())
            if not names:
                raise ValueError(
                    f"REPRO_WORKLOADS names no workloads: {selector!r}")
            for name in names:
                try:
                    resolve_workload(name)    # fail fast on typos
                except KeyError as exc:
                    message = f"REPRO_WORKLOADS: {exc.args[0]}"
                    raise KeyError(message) from None
        return Settings(
            workloads=names,
            warmup_uops=_env_count("REPRO_WARMUP", DEFAULT_WARMUP_UOPS, 0),
            measure_uops=_env_count("REPRO_MEASURE", DEFAULT_MEASURE_UOPS, 1),
            functional_warmup_uops=_env_count(
                "REPRO_FUNC_WARMUP", DEFAULT_FUNCTIONAL_WARMUP_UOPS, 0))

    def with_sweep_overrides(self, sweep: Sweep) -> "Settings":
        """Overlay a sweep's optional overrides on these settings."""
        overrides = {}
        if sweep.workloads is not None:
            overrides["workloads"] = sweep.workloads
        for field_name in ("warmup_uops", "measure_uops",
                           "functional_warmup_uops", "seed"):
            value = getattr(sweep, field_name)
            if value is not None:
                overrides[field_name] = value
        return replace(self, **overrides) if overrides else self


class ExperimentResult:
    """Stats grid + the normalizations the figures report."""

    def __init__(self, name: str, baseline_label: str,
                 workloads: Sequence[str]) -> None:
        self.name = name
        self.baseline_label = baseline_label
        self.workloads = list(workloads)
        # label -> workload -> SimStats
        self.stats: Dict[str, Dict[str, SimStats]] = {}
        # Sampled runs only: label -> workload -> (mean IPC, 95% CI
        # half-width) over measurement intervals. Empty for detailed
        # grids; the report layer prints the ± column when present.
        self.ipc_ci: Dict[str, Dict[str, Tuple[float, float]]] = {}

    # -- ingestion -------------------------------------------------------

    def add(self, label: str, workload: str, stats: SimStats) -> None:
        self.stats.setdefault(label, {})[workload] = stats

    def add_ci(self, label: str, workload: str, mean_ipc: float,
               half_width: float) -> None:
        self.ipc_ci.setdefault(label, {})[workload] = (mean_ipc, half_width)

    def labels(self) -> List[str]:
        return list(self.stats)

    def get(self, label: str, workload: str) -> SimStats:
        return self.stats[label][workload]

    # -- figure (a): performance normalized to the baseline -----------------

    def ipc_ratio(self, label: str) -> Dict[str, float]:
        base = self.stats[self.baseline_label]
        return {
            wl: self.stats[label][wl].ipc / base[wl].ipc if base[wl].ipc else 0.0
            for wl in self.workloads
        }

    def gmean_ipc_ratio(self, label: str) -> float:
        return geomean(self.ipc_ratio(label).values())

    def speedup_over(self, label: str, reference: str) -> float:
        """Geometric-mean speedup of ``label`` over ``reference``."""
        ref = self.ipc_ratio(reference)
        tgt = self.ipc_ratio(label)
        return geomean(tgt[wl] / ref[wl] for wl in self.workloads)

    # -- figure (b): issued-µop breakdown normalized to the baseline ---------

    def breakdown(self, label: str) -> Dict[str, Dict[str, float]]:
        """Per workload: Unique / RpldMiss / RpldBank / Total, each
        normalized to the baseline's issued µops (the paper's Fig. 4b-8b
        y-axis)."""
        base = self.stats[self.baseline_label]
        out: Dict[str, Dict[str, float]] = {}
        for wl in self.workloads:
            stats = self.stats[label][wl]
            denom = base[wl].issued_total or 1
            out[wl] = {
                "unique": stats.unique_issued / denom,
                "rpld_miss": stats.replayed_miss / denom,
                "rpld_bank": stats.replayed_bank / denom,
                "total": stats.issued_total / denom,
            }
        return out

    def total_replays(self, label: str) -> Tuple[int, int]:
        """(miss, bank) replayed-µop totals across workloads."""
        miss = sum(self.stats[label][wl].replayed_miss for wl in self.workloads)
        bank = sum(self.stats[label][wl].replayed_bank for wl in self.workloads)
        return miss, bank

    def total_issued(self, label: str) -> int:
        return sum(self.stats[label][wl].issued_total for wl in self.workloads)

    def replay_reduction(self, label: str, reference: str,
                         kind: str = "total") -> float:
        """Fractional reduction in replayed µops vs ``reference``."""
        ref_miss, ref_bank = self.total_replays(reference)
        lbl_miss, lbl_bank = self.total_replays(label)
        pick = {
            "total": (ref_miss + ref_bank, lbl_miss + lbl_bank),
            "miss": (ref_miss, lbl_miss),
            "bank": (ref_bank, lbl_bank),
        }
        ref_val, lbl_val = pick[kind]
        if ref_val == 0:
            return 0.0
        return 1.0 - lbl_val / ref_val

    def issued_reduction(self, label: str, reference: str) -> float:
        ref = self.total_issued(reference)
        if ref == 0:
            return 0.0
        return 1.0 - self.total_issued(label) / ref


# Process-wide memo shared by every sweep: content-hash -> SimStats.
# Figures share Baseline_0 etc. with each other; the persistent layer
# (REPRO_CACHE_DIR) additionally shares results across processes.
_CACHE: Dict[str, SimStats] = {}


def shared_cache(options: Optional[EngineOptions] = None) -> ResultCache:
    """The default cache: process-wide memo + env-configured disk layer."""
    options = options or EngineOptions.from_env()
    return ResultCache(options.cache_path(), memory=_CACHE)


def _grid_payloads(series: Sequence[SweepSeries],
                   settings: Settings) -> List[dict]:
    # One resolution per name, not per cell: resolving a trace or
    # program name re-reads its file, and the grid repeats each workload
    # once per preset.
    resolved = {name: resolve_workload(name) for name in settings.workloads}
    payloads = []
    for entry in series:
        for workload in settings.workloads:
            payloads.append(cell_payload(
                entry.preset, resolved[workload],
                banked=entry.banked, load_ports=entry.load_ports,
                warmup_uops=settings.warmup_uops,
                measure_uops=settings.measure_uops,
                functional_warmup_uops=settings.functional_warmup_uops,
                seed=settings.seed))
    return payloads


def run_sweep(sweep: Sweep,
              settings: Optional[Settings] = None,
              options: Optional[EngineOptions] = None,
              cache: Optional[ResultCache] = None,
              progress=None) -> ExperimentResult:
    """Execute a declarative :class:`Sweep` and return its result grid.

    ``settings`` provides the environment-level defaults; the sweep's own
    overrides (workloads, µop volumes, seed) win over them. Cells already
    present in ``cache`` (or the process-wide memo / the persistent
    on-disk layer when ``cache`` is omitted) are not re-simulated; the
    rest run serially or across ``options.jobs`` worker processes.
    ``progress`` (``callable(done, total, manifest)``) fires per
    simulated cell as results land — see
    :func:`repro.experiments.engine.run_cells`.

    A sweep with a ``[sampling]`` table (a :class:`~repro.checkpoint.
    sampling.SamplingSpec`) expands every grid cell into per-interval
    cells, aggregated like a sampled :func:`~repro.pipeline.sim.
    run_workload` cell (:class:`~repro.pipeline.sim.RunResult`): the
    grid entry becomes the counter-wise interval sum and the result
    carries the interval-mean IPC ± 95% CI per cell (``ipc_ci``).
    Interval warming chains through checkpoints, one warming pass per
    workload rebased across the config grid (see
    :func:`~repro.checkpoint.sampling.chained_cell_payloads`).
    """
    import contextlib

    from repro.checkpoint.sampling import chained_cell_payloads

    sweep.validate()
    settings = (settings or Settings.from_env()).with_sweep_overrides(sweep)
    options = options or EngineOptions.from_env()
    sampling = sweep.sampling_spec()
    cache = cache if cache is not None else shared_cache(options)
    payloads = _grid_payloads(sweep.series, settings)
    with contextlib.ExitStack() as stack:
        if sampling is not None:
            store = stack.enter_context(checkpoint_store(options))
            payloads = chained_cell_payloads(
                payloads, sampling, store, options=options,
                progress=progress)
        stats_list = run_cells(payloads, options=options, cache=cache,
                               progress=progress)
    result = ExperimentResult(sweep.name, sweep.baseline, settings.workloads)
    cursor = iter(stats_list)
    for series in sweep.series:
        for workload in settings.workloads:
            if sampling is None:
                result.add(series.label, workload, next(cursor))
                continue
            cell = RunResult.from_intervals(
                workload, series.preset,
                [next(cursor) for _ in range(sampling.intervals)])
            result.add(series.label, workload, cell.stats)
            result.add_ci(series.label, workload, cell.ipc, cell.ipc_ci95)
    return result
