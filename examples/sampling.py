"""Checkpointing + SMARTS-style sampling, end to end.

Walks three pieces:

1. freeze a warm simulator to a ``.ckpt`` file and resume it
   bit-identically;
2. run a sampled cell (``run_workload(..., sampling=SPEC)``:
   checkpoint-chained engine cells, cold: no persistent cache) and
   compare it against the full detailed simulation of the same stream
   span;
3. run the same spec with the environment's engine options — the cells
   parallelize over ``REPRO_JOBS`` and land in the persistent cache.

Run with::

    PYTHONPATH=src python examples/sampling.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.checkpoint.format import restore_simulator, save_checkpoint
from repro import SamplingSpec, run_workload
from repro.common.stats import SimStats
from repro.core.presets import make_config
from repro.experiments.engine import (
    EngineOptions,
    cell_payload,
    simulate_payload,
)
from repro.pipeline.cpu import Simulator
from repro.traces.registry import resolve_workload

WORKLOAD = "xalancbmk"
PRESET = "SpecSched_4_Combined"
SPEC = SamplingSpec(intervals=12, interval_uops=1_000, warmup_uops=300,
                    period_uops=10_000, offset_uops=20_000)


def checkpoint_roundtrip(tmp: Path) -> None:
    print("== 1. checkpoint: save -> restore -> continue, bit-identical ==")
    workload = resolve_workload(WORKLOAD)
    config = make_config(PRESET)

    reference = Simulator(config, workload.build_trace(1))
    reference.run(max_uops=8_000)

    sim = Simulator(config, workload.build_trace(1))
    sim.run(max_uops=3_000)
    path = tmp / "warm.ckpt"
    info = save_checkpoint(sim, path, workload=workload, seed=1)
    print(f"  saved {path.name}: {info.file_bytes} bytes, "
          f"digest {info.digest[:16]}…")

    resumed = restore_simulator(path)
    resumed.run(max_uops=8_000)
    identical = resumed.stats.to_dict() == reference.stats.to_dict()
    print(f"  resumed run == uninterrupted run: {identical}")
    assert identical


def sampled_vs_detailed() -> None:
    print("\n== 2. sampled estimate vs full detailed simulation ==")
    workload = resolve_workload(WORKLOAD)
    span = SPEC.span_uops

    start = time.perf_counter()
    payload = cell_payload(PRESET, workload, warmup_uops=SPEC.offset_uops,
                           measure_uops=span - SPEC.offset_uops,
                           functional_warmup_uops=0, seed=1)
    detailed = SimStats.from_dict(simulate_payload(payload))
    detailed_wall = time.perf_counter() - start

    start = time.perf_counter()
    # Cache off, one process: a cold run keeps the speedup honest.
    sampled = run_workload(workload, PRESET, seed=1, sampling=SPEC,
                           options=EngineOptions(jobs=1, cache_dir="off"))
    sampled_wall = time.perf_counter() - start

    err = abs(sampled.ipc - detailed.ipc) / detailed.ipc
    print(f"  span {span} µops; detailed IPC {detailed.ipc:.3f} "
          f"({detailed_wall:.1f}s)")
    print(f"  sampled IPC {sampled.ipc:.3f} ±{sampled.ipc_ci95:.3f} "
          f"({sampled_wall:.1f}s) — {detailed_wall / sampled_wall:.1f}x "
          f"faster, {err:.1%} error")


def sampled_cells() -> None:
    print("\n== 3. the same cells, pooled + persistently cached ==")
    result = run_workload(WORKLOAD, PRESET, seed=1, sampling=SPEC,
                          options=EngineOptions.from_env())
    ipcs = " ".join(f"{stats.ipc:.3f}" for stats in result.intervals)
    print(f"  interval IPCs: {ipcs}")
    print(f"  mean {result.ipc:.3f} ±{result.ipc_ci95:.3f} (95% CI)")
    total = result.stats            # counter-wise sum over the intervals
    issued = total.issued_total or 1
    print(f"  issued breakdown: unique {total.unique_issued / issued:.3f}, "
          f"rpld_miss {total.replayed_miss / issued:.3f}, "
          f"rpld_bank {total.replayed_bank / issued:.3f}")
    print("  (re-run this script: every interval now comes from the "
          "persistent cache)")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_roundtrip(Path(tmp))
    sampled_vs_detailed()
    sampled_cells()


if __name__ == "__main__":
    main()
