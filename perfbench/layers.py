"""Which program functions the traced run wraps, and the per-layer metrics.

Layers are the simulator's modules. Each traced function is a public
entry point of one of them:

==========================  ===============================================
span prefix                 wrapped functions
==========================  ===============================================
``workloads.``              ``WorkloadSpec.build_trace``,
                            ``TraceWorkload.build_trace``
``traces.``                 ``capture``, ``FileTrace.next_record_block``,
                            ``FileTrace.load_state_dict``
``warming.``                ``Simulator.fast_forward``,
                            ``Simulator.functional_warmup``
``detailed.``               ``Simulator.__init__``, ``Simulator.run``
                            (per-stage timers inside via ``phase_profile=``)
``checkpoint.``             ``save_checkpoint``, ``load_checkpoint``,
                            ``Checkpoint.restore``, ``rebase_checkpoint``
``engine.``                 ``cell_key``, ``ResultCache.get``/``.put``,
                            ``write_manifest``, ``simulate_payload``,
                            ``produce_checkpoint``
==========================  ===============================================

Layers every workload enters are reported in seconds. Layers that some
workloads never enter (trace recordings, checkpoints, manifests, the
warm rerun) are reported as their share of the traced pass, so that an
absent layer reads as a zero share rather than as a constant time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List

from tracer import Tracer

from repro.checkpoint import format as checkpoint_format
from repro.checkpoint import rebase
from repro.experiments import engine
from repro.perf.instrument import PHASES, PhaseProfile
from repro.pipeline.cpu import Simulator
from repro.telemetry import manifest
from repro.traces import format as trace_format
from repro.traces.registry import TraceWorkload
from repro.workloads.spec import WorkloadSpec

STAGE_METRICS = tuple(f"stage.{phase}_s" for phase in PHASES)

#: Share-of-pass metric -> the span it measures.
SHARES = {
    "traces.read_share": "traces.read",
    "traces.seek_share": "traces.seek",
    "checkpoint.save_share": "checkpoint.save",
    "checkpoint.load_share": "checkpoint.load",
    "checkpoint.restore_share": "checkpoint.restore",
    "checkpoint.rebase_share": "checkpoint.rebase",
    "engine.manifest_share": "engine.manifest",
}

#: Per-layer metrics (reported with ``--trace 1``) and their units.
UNITS = {
    **{name: "s" for name in STAGE_METRICS},
    "detailed.run_s": "s",
    "detailed.build_s": "s",
    "detailed.us_per_cycle": "us",
    "detailed.kcycles_per_s": "kcycles/s",
    "model.kcycles": "kcycles",
    "workloads.build_trace_s": "s",
    "workloads.uops_pulled_per_commit": "ratio",
    "warming.warm_s": "s",
    "warming.kuops_per_s": "kuops/s",
    "traces.capture_share": "ratio",
    "traces.replay_kuops_per_s": "kuops/s",
    **{name: "ratio" for name in SHARES},
    "checkpoint.mb_written": "MB",
    "engine.cell_key_s": "s",
    "engine.cache_get_s": "s",
    "engine.cache_put_s": "s",
    "engine.cell_s": "s",
    "engine.rerun_share": "ratio",
    "engine.rerun_hit_ratio": "ratio",
    "model.ipc": "uops/cycle",
    "model.issue_efficiency": "ratio",
    "model.replays_per_kuop": "1/kuop",
    "model.bank_conflicts_per_kuop": "1/kuop",
    "model.l1d_miss_per_kuop": "1/kuop",
    "model.mispredicts_per_kuop": "1/kuop",
    "model.sampled_ipc_err_pct": "%",
    "runtime.gc_s": "s",
    "runtime.gc_share": "ratio",
    "runtime.gc_collections": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _source_position(trace) -> int:
    """µops a trace source has handed out so far (live or recorded)."""
    return int(getattr(trace, "emitted", getattr(trace, "replayed", 0)))


def build_tracer(profile: PhaseProfile) -> Tracer:
    """A tracer over every layer's entry points; stage timers go to
    ``profile``."""
    tracer = Tracer()
    counts = tracer.counts

    def with_profile(args, kwargs):
        kwargs["phase_profile"] = profile

    def before_run(args, kwargs):
        sim = args[0]
        return (_source_position(sim.trace), sim.stats.committed_uops)

    def after_run(context, args, result):
        sim = args[0]
        counts["pulled_uops"] += _source_position(sim.trace) - context[0]
        counts["run_committed"] += sim.stats.committed_uops - context[1]

    def after_fast_forward(context, args, consumed):
        counts["warmed_uops"] += consumed

    def before_functional_warmup(args, kwargs):
        return _source_position(args[1])

    def after_functional_warmup(context, args, result):
        counts["warmed_uops"] += _source_position(args[1]) - context

    def after_write(context, args, info):
        counts["checkpoint_bytes"] += info.file_bytes

    def after_block(context, args, block):
        if block is not None:
            counts["block_uops"] += len(block)

    add = tracer.add
    add(WorkloadSpec, "build_trace", "workloads.build_trace")
    add(TraceWorkload, "build_trace", "workloads.build_trace")
    add(trace_format, "capture", "traces.capture")
    add(trace_format.FileTrace, "next_record_block", "traces.read",
        after=after_block)
    add(trace_format.FileTrace, "load_state_dict", "traces.seek")
    add(Simulator, "fast_forward", "warming.fast_forward",
        after=after_fast_forward)
    add(Simulator, "functional_warmup", "warming.functional_warmup",
        before=before_functional_warmup, after=after_functional_warmup)
    add(Simulator, "__init__", "detailed.build")
    add(Simulator, "run", "detailed.run", before=before_run, after=after_run)
    add(checkpoint_format, "save_checkpoint", "checkpoint.save",
        after=after_write)
    add(checkpoint_format, "load_checkpoint", "checkpoint.load")
    add(checkpoint_format.Checkpoint, "restore", "checkpoint.restore")
    add(rebase, "rebase_checkpoint", "checkpoint.rebase", after=after_write)
    add(engine, "cell_key", "engine.cell_key")
    add(engine.ResultCache, "get", "engine.cache_get")
    add(engine.ResultCache, "put", "engine.cache_put")
    add(manifest, "write_manifest", "engine.manifest")
    add(engine, "simulate_payload", "engine.simulate",
        before=with_profile)
    add(engine, "produce_checkpoint", "engine.produce")
    return tracer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, profile: PhaseProfile,
                  windows: List[tuple]) -> Dict[str, float]:
    """Per-pass per-layer metrics from the traced passes.

    ``windows`` holds one ``(first span, end span, pass wall seconds)``
    per traced pass; times and counts are means over those passes.
    """
    passes = len(windows)
    own: Dict[str, float] = defaultdict(float)
    attributed = 0.0
    wall = 0.0
    for first, end, seconds in windows:
        for name, value in tracer.self_times(first, end).items():
            own[name] += value / passes
        attributed += tracer.root_time(first, end)
        wall += seconds
    pass_s = wall / passes
    counts = defaultdict(float, {name: value / passes
                                 for name, value in tracer.counts.items()})
    cycles = profile.cycles / passes
    run_s = own["detailed.run"]             # it has no traced children
    warming_s = own["warming.fast_forward"] + own["warming.functional_warmup"]
    metrics = {name: profile.seconds.get(name[6:-2], 0.0) / passes
               for name in STAGE_METRICS}
    metrics.update({name: _ratio(own[span], pass_s)
                    for name, span in SHARES.items()})
    metrics.update({
        "detailed.run_s": run_s,
        "detailed.build_s": own["detailed.build"],
        "detailed.us_per_cycle": 1e6 * _ratio(run_s, cycles),
        "detailed.kcycles_per_s": _ratio(cycles, run_s) / 1e3,
        "model.kcycles": cycles / 1e3,
        "workloads.build_trace_s": own["workloads.build_trace"],
        "workloads.uops_pulled_per_commit": _ratio(
            counts["pulled_uops"], counts["run_committed"]),
        "warming.warm_s": warming_s,
        "warming.kuops_per_s": _ratio(counts["warmed_uops"], warming_s) / 1e3,
        "traces.replay_kuops_per_s": _ratio(
            counts["block_uops"], own["traces.read"]) / 1e3,
        "checkpoint.mb_written": counts["checkpoint_bytes"] / 1e6,
        "engine.cell_key_s": own["engine.cell_key"],
        "engine.cache_get_s": own["engine.cache_get"],
        "engine.cache_put_s": own["engine.cache_put"],
        "engine.cell_s": own["engine.simulate"] + own["engine.produce"],
        "runtime.gc_s": counts["gc_s"],
        "runtime.gc_share": _ratio(counts["gc_s"], pass_s),
        "runtime.gc_collections": counts["gc_collections"],
        "trace.unattributed_share": 1.0 - _ratio(attributed, wall),
    })
    return metrics


def model_metrics(stats: Dict[str, dict]) -> Dict[str, float]:
    """The simulated machine's own rates over every cell of a pass."""
    total: Dict[str, int] = defaultdict(int)
    for counters in stats.values():
        for name, value in counters.items():
            if isinstance(value, int):
                total[name] += value
    committed = total["committed_uops"]

    def per_kuop(value: int) -> float:
        return 1e3 * _ratio(value, committed)

    return {
        "model.ipc": _ratio(committed, total["cycles"]),
        "model.issue_efficiency": _ratio(total["unique_issued"],
                                         total["issued_total"]),
        "model.replays_per_kuop": per_kuop(total["replayed_miss"]
                                           + total["replayed_bank"]),
        "model.bank_conflicts_per_kuop": per_kuop(
            total["l1d_bank_conflicts"]),
        "model.l1d_miss_per_kuop": per_kuop(total["l1d_misses"]),
        "model.mispredicts_per_kuop": per_kuop(total["branch_mispredicts"]),
    }
