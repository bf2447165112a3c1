"""Convenience runners: one workload under one configuration.

The experiment harness and the examples go through these entry points, so
defaults (warmup/measure µop counts) are centralized here. Counts are small
relative to the paper's 50M+100M because the synthetic workloads are
stationary (DESIGN.md §2); override them for higher-fidelity runs. The
``REPRO_*`` volume variables and
:class:`~repro.experiments.runner.Settings` fall back to these same
constants.

Execution funnels through the engine's
:func:`~repro.experiments.engine.simulate_payload` — the same worker
entry point sweeps and sampled runs use — so checkpoint and sampling
options cannot diverge between the one-shot and batch paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.common.config import SimConfig
from repro.common.stats import SimStats
from repro.core.presets import make_config
from repro.traces.registry import resolve_workload
from repro.workloads.spec import WorkloadSpec

DEFAULT_WARMUP_UOPS = 3_000
DEFAULT_MEASURE_UOPS = 12_000
#: Functional (timing-free) cache/predictor warmup before the timed run —
#: the analogue of the paper's 50M-instruction warmup phase.
DEFAULT_FUNCTIONAL_WARMUP_UOPS = 60_000
#: Generous safety net; runs normally end on the µop budget long before.
DEFAULT_MAX_CYCLES = 3_000_000


@dataclass
class RunResult:
    """Outcome of one (workload, configuration) simulation."""

    workload: str
    config_name: str
    stats: SimStats

    @property
    def ipc(self) -> float:
        """Committed µops per cycle over the measured region."""
        return self.stats.ipc


def workload_seed(workload, seed: Optional[int] = None) -> int:
    """``seed``, or the workload's own seed when ``seed`` is None.

    Trace workloads carry no seed (the stream was fixed at record time
    and ``build_trace`` ignores it) and default to 0; suite specs and
    RV32I programs default to their own.
    """
    if seed is not None:
        return seed
    return int(getattr(workload, "seed", 0) or 0)


def build_payload(
    workload: Union[str, WorkloadSpec],
    config: Union[str, SimConfig],
    warmup_uops: int = DEFAULT_WARMUP_UOPS,
    measure_uops: int = DEFAULT_MEASURE_UOPS,
    seed: Optional[int] = None,
    banked: bool = True,
    max_cycles: Optional[int] = DEFAULT_MAX_CYCLES,
    functional_warmup_uops: int = DEFAULT_FUNCTIONAL_WARMUP_UOPS,
    checkpoint=None,
):
    """Resolve arguments into one engine cell payload (plus its pieces).

    Returns ``(payload, resolved workload, SimConfig)``.
    """
    from repro.experiments.engine import base_cell_payload

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
    if max_cycles is not None:
        payload["max_cycles"] = max_cycles
    if checkpoint is not None:
        from repro.experiments.engine import checkpoint_reference

        payload["checkpoint"] = checkpoint_reference(checkpoint)
    return payload, spec, config


def run_workload(
    workload: Union[str, WorkloadSpec],
    config: Union[str, SimConfig],
    warmup_uops: int = DEFAULT_WARMUP_UOPS,
    measure_uops: int = DEFAULT_MEASURE_UOPS,
    seed: Optional[int] = None,
    banked: bool = True,
    max_cycles: int = DEFAULT_MAX_CYCLES,
    functional_warmup_uops: int = DEFAULT_FUNCTIONAL_WARMUP_UOPS,
    checkpoint=None,
    collector=None,
) -> RunResult:
    """Run ``workload`` under ``config`` and return measured-region stats.

    ``config`` may be a preset name ("SpecSched_4_Crit") or a full
    :class:`SimConfig`; ``banked`` only applies when a name is given.
    ``workload`` may be a suite name, any other workload-registry name or
    path (recorded trace, RV32I image), or a workload object.
    ``checkpoint`` (a ``.ckpt`` path) resumes from saved warm state
    instead of starting cold — warmup/measure volumes then count from
    the checkpointed position. ``collector`` (a
    :class:`repro.telemetry.probes.MetricsCollector`) instruments the
    run with the metric probes; the distilled table lands in the
    result's ``stats.telemetry``.
    """
    from repro.experiments.engine import simulate_payload

    payload, spec, config = build_payload(
        workload,
        config,
        warmup_uops=warmup_uops,
        measure_uops=measure_uops,
        seed=seed,
        banked=banked,
        max_cycles=max_cycles,
        functional_warmup_uops=functional_warmup_uops,
        checkpoint=checkpoint,
    )
    stats = SimStats.from_dict(simulate_payload(payload, collector=collector))
    return RunResult(workload=spec.name, config_name=config.name, stats=stats)

