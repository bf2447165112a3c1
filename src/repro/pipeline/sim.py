"""The single-cell driver: one workload under one configuration.

:func:`run_workload` is the one way to run one cell, for the library and
``repro run`` alike. It builds the cell exactly as grid cells are built
(:func:`~repro.experiments.engine.base_cell_payload`) and runs it through
the engine: a plain cell through
:func:`~repro.experiments.engine.simulate_payload`, a sampled one as
checkpoint-chained interval cells through
:func:`~repro.experiments.engine.run_cells`. So a cell cannot warm or
measure differently here than in a sweep.

The default µop volumes live here. They are small relative to the
paper's 50M+100M because the synthetic workloads are stationary
(DESIGN.md §2); override them for higher-fidelity runs. The ``REPRO_*``
volume variables and :class:`~repro.experiments.runner.Settings` fall
back to these same constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Union

from repro.checkpoint.sampling import SamplingSpec, chained_cell_payloads
from repro.common.config import SimConfig
from repro.common.mathutil import ci95_half_width, mean
from repro.common.stats import SimStats
from repro.core.presets import make_config
from repro.traces.registry import resolve_workload
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:
    from repro.experiments.engine import EngineOptions

DEFAULT_WARMUP_UOPS = 3_000
DEFAULT_MEASURE_UOPS = 12_000
#: Functional (timing-free) cache/predictor warmup before the timed run —
#: the analogue of the paper's 50M-instruction warmup phase.
DEFAULT_FUNCTIONAL_WARMUP_UOPS = 60_000


@dataclass
class RunResult:
    """Outcome of one (workload, configuration) cell.

    A sampled cell keeps its per-interval stats in ``intervals``;
    ``stats`` is then their counter-wise sum (the replay-breakdown view:
    summed counters aggregate exactly, ratios recompute from them) and
    :attr:`ipc` the interval mean. A plain cell has no intervals.
    """

    workload: str
    config_name: str
    stats: SimStats
    intervals: List[SimStats] = field(default_factory=list)

    @classmethod
    def from_intervals(cls, workload: str, config_name: str,
                       intervals: List[SimStats]) -> "RunResult":
        """A sampled cell's result from its per-interval stats."""
        total = SimStats()
        for stats in intervals:
            for name, value in stats.__dict__.items():
                if name in ("extra", "telemetry"):   # non-counter tables
                    continue
                setattr(total, name, getattr(total, name) + value)
            for key, value in stats.extra.items():
                total.extra[key] = total.extra.get(key, 0) + value
        return cls(workload, config_name, total, list(intervals))

    @property
    def ipc(self) -> float:
        """Committed µops per cycle: the interval mean of a sampled cell,
        else over the measured region."""
        if self.intervals:
            return mean(stats.ipc for stats in self.intervals)
        return self.stats.ipc

    @property
    def ipc_ci95(self) -> float:
        """Half-width of the 95% CI on the interval-mean IPC (0.0 for a
        plain cell)."""
        return ci95_half_width(stats.ipc for stats in self.intervals)


def workload_seed(workload, seed: Optional[int] = None) -> int:
    """``seed``, or the workload's own seed when ``seed`` is None.

    Trace workloads carry no seed (the stream was fixed at record time
    and ``build_trace`` ignores it) and default to 0; suite specs and
    RV32I programs default to their own.
    """
    if seed is not None:
        return seed
    return int(getattr(workload, "seed", 0) or 0)


def run_workload(
    workload: Union[str, WorkloadSpec],
    config: Union[str, SimConfig],
    warmup_uops: int = DEFAULT_WARMUP_UOPS,
    measure_uops: int = DEFAULT_MEASURE_UOPS,
    seed: Optional[int] = None,
    banked: bool = True,
    functional_warmup_uops: int = DEFAULT_FUNCTIONAL_WARMUP_UOPS,
    checkpoint=None,
    collector=None,
    sampling: Optional[SamplingSpec] = None,
    options: Optional["EngineOptions"] = None,
) -> RunResult:
    """Run ``workload`` under ``config`` as one cell.

    ``config`` may be a preset name ("SpecSched_4_Crit") or a full
    :class:`SimConfig`; ``banked`` only applies when a name is given.
    ``workload`` may be a suite name, any other workload-registry name or
    path (recorded trace, RV32I image), or a workload object.
    ``checkpoint`` (a ``.ckpt`` path) resumes from saved warm state
    instead of starting cold — warmup/measure volumes then count from
    the checkpointed position.

    Without ``sampling`` the cell runs once, uncached, and ``collector``
    (a :class:`repro.telemetry.probes.MetricsCollector`) may instrument
    it: the distilled table lands in the result's ``stats.telemetry``,
    and any further sink on ``collector.bus`` sees the same events.

    With ``sampling`` (a :class:`~repro.checkpoint.sampling.
    SamplingSpec`) the cell runs as checkpoint-chained interval cells
    under ``options`` (default: the environment's), pooled and cached
    like any sweep cell; the spec's volumes replace the three µop
    volumes, and a ``checkpoint`` starts the chain instead of µop zero.
    Sampled cells are never instrumented.
    """
    from repro.experiments.engine import (
        EngineOptions,
        base_cell_payload,
        checkpoint_reference,
        checkpoint_store,
        run_cells,
        simulate_payload,
    )

    if sampling is not None and collector is not None:
        raise ValueError("a collector instruments one detailed cell, "
                         "not sampled interval cells")
    spec = resolve_workload(workload)
    if isinstance(config, str):
        config = make_config(config, banked=banked)
    payload = base_cell_payload(
        config,
        spec,
        warmup_uops=warmup_uops,
        measure_uops=measure_uops,
        functional_warmup_uops=functional_warmup_uops,
        seed=workload_seed(spec, seed),
    )
    if checkpoint is not None:
        payload["checkpoint"] = checkpoint_reference(checkpoint)
    if sampling is None:
        stats = SimStats.from_dict(
            simulate_payload(payload, collector=collector))
        return RunResult(spec.name, config.name, stats)
    options = options or EngineOptions.from_env()
    with checkpoint_store(options) as store:
        payloads = chained_cell_payloads([payload], sampling, store,
                                         options=options)
        intervals = run_cells(payloads, options=options)
    return RunResult.from_intervals(spec.name, config.name, intervals)
